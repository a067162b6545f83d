(* The traced run's span recorder.  Every call the benchmark makes into a
   layer of the program can be wrapped in [call]; with tracing off that is
   one branch and the call itself.  With tracing on, each span keeps its
   layer, name, start, end and parent, and all spans of one operation
   (opened by [op]) share that operation's id.  A [call] span also counts
   the minor-heap words its call allocated, read right before and right
   after the call so the recorder's own allocation falls outside.  Spans
   stay in memory until the run ends.

   This recorder is separate from the program's own [Slif_obs] registry,
   which stays off: the benchmark times the layers from outside, so a
   traced run records nothing the program would not. *)

type span = {
  id : int;
  parent : int;  (** 0 for an operation's root *)
  op : int;  (** id of the operation the span belongs to; 0 outside one *)
  layer : string;
  name : string;
  start_us : float;
  stop_us : float;
  words : float;  (** minor-heap words allocated inside the span *)
}

(* The benchmark's own code: operation roots and the glue between calls. *)
let bench_layer = "bench"

(* Host-speed calibration bursts and the collections between set-ups:
   the benchmark's own work between operations, left out of the wall time
   the layers must cover. *)
let calib_layer = "calib"

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let next_op = ref 0

(* Innermost open span: (id, op). *)
let stack : (int * int) list ref = ref []

let enable () = enabled := true
let disable () = enabled := false

let record ~layer ~name f =
  incr next_id;
  let id = !next_id in
  let parent, op =
    match !stack with (p, o) :: _ -> (p, o) | [] -> (0, 0)
  in
  let op = if parent = 0 && layer = bench_layer then (incr next_op; !next_op) else op in
  stack := (id, op) :: !stack;
  let start_us = Slif_obs.Clock.now_us () in
  let finish words =
    let stop_us = Slif_obs.Clock.now_us () in
    stack := List.tl !stack;
    recorded := { id; parent; op; layer; name; start_us; stop_us; words } :: !recorded
  in
  (* The counter is read right around [f], after the recorder's own
     allocations and before the next ones. *)
  let w0 = Gc.minor_words () in
  match f () with
  | v ->
      finish (Gc.minor_words () -. w0);
      v
  | exception e ->
      finish (Gc.minor_words () -. w0);
      raise e

(* A span around one call into [layer]. *)
let call layer name f = if !enabled then record ~layer ~name f else f ()

(* The root span of one operation: every span opened inside shares its id. *)
let op name f = if !enabled then record ~layer:bench_layer ~name f else f ()

let all () = List.rev !recorded

(* Self time: a span's duration minus the part its direct children cover
   (children never outlive their parent, so the covered part is the sum of
   their durations). *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let d = s.stop_us -. s.start_us in
        Hashtbl.replace child s.parent
          (d +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      (s, s.stop_us -. s.start_us -. covered))
    spans

(* Self time summed per layer, in microseconds, sorted by layer name. *)
let layer_self_us spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.layer
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.layer)))
    (self_times spans);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* Durations in microseconds of every span called [layer.name]. *)
let durations spans ~layer ~name =
  List.filter_map
    (fun s ->
      if s.layer = layer && s.name = name then Some (s.stop_us -. s.start_us) else None)
    spans
  |> Array.of_list

(* Minor-heap words allocated inside the [call] spans of the operations
   named [op_name], and the number of those operations.  [call] spans are
   leaves (the benchmark never nests one call in another), so no word is
   counted twice; [pick] narrows the calls counted. *)
let op_call_words ?(pick = fun _ -> true) spans ~op_name =
  let ops = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent = 0 && s.layer = bench_layer && s.name = op_name then
        Hashtbl.replace ops s.op ())
    spans;
  let words =
    List.fold_left
      (fun acc s ->
        if s.layer <> bench_layer && s.layer <> calib_layer && Hashtbl.mem ops s.op && pick s
        then acc +. s.words
        else acc)
      0.0 spans
  in
  (words, Hashtbl.length ops)

let to_json spans =
  let module J = Slif_obs.Json in
  J.List
    (List.map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("parent", J.Int s.parent);
             ("op", J.Int s.op);
             ("layer", J.String s.layer);
             ("name", J.String s.name);
             ("start_us", J.Float s.start_us);
             ("stop_us", J.Float s.stop_us);
             ("words", J.Float s.words);
           ])
       spans)
