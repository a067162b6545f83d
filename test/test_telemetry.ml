(* Golden shape tests for the daemon's four telemetry views: the [stats]
   and [health] JSON, the [metrics] Prometheus document and the SIGUSR1
   text dump.  A real [slif serve] process (a fresh one, so no other
   suite's process-wide counters leak in) answers a fixed request
   sequence; each view is reduced to its shape — key paths and value
   types, metric names and label keys, line prefixes — and compared
   with a file under [golden/].  Numbers, per-domain keys and label
   values are masked, so the goldens pin structure, not measurements. *)

module Json = Slif_obs.Json
module Client = Slif_server.Client

let cli = "../bin/slif_cli.exe"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let lines_of text = List.filter (fun l -> l <> "") (String.split_on_char '\n' text)

(* Runs of identical lines collapse to one: per-domain and per-ring
   series repeat once per domain, and the domain count is not part of
   the shape. *)
let squeeze lines =
  List.rev
    (List.fold_left
       (fun acc l -> match acc with prev :: _ when prev = l -> acc | _ -> l :: acc)
       [] lines)

let dedup lines =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun l ->
      if Hashtbl.mem seen l then false
      else begin
        Hashtbl.add seen l ();
        true
      end)
    lines

(* --- Shape reducers ---------------------------------------------------------- *)

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

(* Every key path with its value type, in document order.  Numeric
   object keys (domain and worker ids) become [<n>]; list elements share
   the path [<list>[]]; whole-number floats cross the wire as ints, so
   both read as [number]. *)
let json_shape json =
  let rec go path j acc =
    let line ty = (path ^ " : " ^ ty) :: acc in
    match j with
    | Json.Null -> line "null"
    | Json.Bool _ -> line "bool"
    | Json.Int _ | Json.Float _ -> line "number"
    | Json.String _ -> line "string"
    | Json.List items ->
        List.fold_left (fun acc item -> go (path ^ "[]") item acc) (line "list") items
    | Json.Obj fields ->
        List.fold_left
          (fun acc (k, v) ->
            let k = if is_digits k then "<n>" else k in
            go (if path = "." then k else path ^ "." ^ k) v acc)
          (line "object") fields
  in
  dedup (List.rev (go "." json []))

(* [# HELP]/[# TYPE] lines verbatim; each sample reduced to its name and
   label keys. *)
let metrics_shape text =
  let sample line =
    let head =
      match String.index_opt line ' ' with Some i -> String.sub line 0 i | None -> line
    in
    match String.index_opt head '{' with
    | None -> head
    | Some b ->
        let name = String.sub head 0 b in
        let body = String.sub line (b + 1) (String.length line - b - 1) in
        (* Label values are quoted and may hold anything but an
           unescaped quote; walk the body, keeping only the keys. *)
        let keys = ref [] and buf = Buffer.create 16 and i = ref 0 in
        let n = String.length body in
        let stop = ref false in
        while (not !stop) && !i < n do
          match body.[!i] with
          | '=' ->
              keys := Buffer.contents buf :: !keys;
              Buffer.clear buf;
              (* skip the quoted value *)
              i := !i + 2;
              while !i < n && body.[!i] <> '"' do
                if body.[!i] = '\\' then incr i;
                incr i
              done;
              incr i
          | ',' -> incr i
          | '}' -> stop := true
          | c ->
              Buffer.add_char buf c;
              incr i
        done;
        Printf.sprintf "%s{%s}" name (String.concat "," (List.rev !keys))
  in
  squeeze
    (List.map
       (fun l -> if String.length l > 0 && l.[0] = '#' then l else sample l)
       (lines_of text))

(* Each line cut at its first digit, trailing blanks dropped. *)
let dump_shape lines =
  squeeze
    (List.map
       (fun l ->
         let cut =
           match String.to_seq l |> Seq.zip (Seq.ints 0)
                 |> Seq.find (fun (_, c) -> c >= '0' && c <= '9') with
           | Some (i, _) -> String.sub l 0 i
           | None -> l
         in
         let len = ref (String.length cut) in
         while !len > 0 && cut.[!len - 1] = ' ' do decr len done;
         String.sub cut 0 !len)
       lines)

(* --- The fixed session ------------------------------------------------------- *)

type views = { stats : Json.t; health : Json.t; metrics : string; dump : string list }

let request client fields =
  match Client.request client (Json.Obj fields) with
  | Ok json -> json
  | Error msg -> Alcotest.failf "request failed: %s" msg

(* The dump lines between the banner and the end marker, once both
   have landed in the daemon's stderr. *)
let dump_lines err_path =
  let rec wait tries =
    let lines = lines_of (read_file err_path) in
    let rec after_banner = function
      | [] -> None
      | "--- slif serve telemetry ---" :: rest ->
          let rec upto acc = function
            | [] -> None
            | "--- end telemetry ---" :: _ -> Some (List.rev acc)
            | l :: rest -> upto (l :: acc) rest
          in
          upto [] rest
      | _ :: rest -> after_banner rest
    in
    match after_banner lines with
    | Some dump -> dump
    | None ->
        if tries = 0 then Alcotest.fail "no telemetry dump after SIGUSR1";
        Unix.sleepf 0.05;
        wait (tries - 1)
  in
  wait 200

let session =
  lazy
    (let sock = Filename.temp_file "slif_golden" ".sock" in
     Sys.remove sock;
     let err_path = Filename.temp_file "slif_golden" ".stderr" in
     let err_fd = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
     let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
     let pid =
       Unix.create_process cli
         [| cli; "serve"; "--socket"; sock; "--workers"; "2" |]
         Unix.stdin null err_fd
     in
     Unix.close null;
     Unix.close err_fd;
     Fun.protect
       ~finally:(fun () ->
         (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
         ignore (Unix.waitpid [] pid);
         if Sys.file_exists sock then Sys.remove sock;
         if Sys.file_exists err_path then Sys.remove err_path)
       (fun () ->
         let rec wait tries =
           if Sys.file_exists sock then ()
           else if tries = 0 then Alcotest.fail "daemon socket never appeared"
           else begin
             Unix.sleepf 0.05;
             wait (tries - 1)
           end
         in
         wait 200;
         let client = Client.connect_unix ~timeout_ms:30_000 sock in
         Fun.protect
           ~finally:(fun () ->
             (try ignore (Client.request_raw client {|{"op":"shutdown"}|}) with _ -> ());
             Client.close client)
           (fun () ->
             let spec name = [ ("spec", Json.String name) ] in
             ignore (request client (("op", Json.String "load") :: spec "vol"));
             ignore (request client (("op", Json.String "estimate") :: spec "vol"));
             ignore (request client (("op", Json.String "estimate") :: spec "fuzzy"));
             ignore
               (request client
                  ([ ("op", Json.String "partition"); ("algo", Json.String "greedy") ]
                  @ spec "vol"));
             let item = Json.Obj (("op", Json.String "estimate") :: spec "vol") in
             (match Client.batch client [ item ] with
             | Ok _ -> ()
             | Error msg -> Alcotest.failf "batch failed: %s" msg);
             ignore (Client.request_raw client "this is not json");
             ignore (request client [ ("op", Json.String "traces") ]);
             let stats = request client [ ("op", Json.String "stats") ] in
             let health = request client [ ("op", Json.String "health") ] in
             let metrics =
               match
                 Slif_server.Protocol.output_field
                   (request client [ ("op", Json.String "metrics") ])
               with
               | Some text -> text
               | None -> Alcotest.fail "metrics response carries no output"
             in
             Unix.kill pid Sys.sigusr1;
             let dump = dump_lines err_path in
             { stats; health; metrics; dump })))

(* --- Golden comparison ------------------------------------------------------- *)

let check_golden name actual =
  let path = Filename.concat "golden" name in
  let expected = lines_of (read_file path) in
  if expected <> actual then begin
    let out = Filename.concat (Filename.get_temp_dir_name ()) (name ^ ".actual") in
    let oc = open_out_bin out in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc;
    Alcotest.(check (list string)) (Printf.sprintf "%s (actual shape in %s)" name out)
      expected actual
  end

let available () = Sys.file_exists cli

let test_stats_shape () =
  if available () then
    check_golden "telemetry_stats.txt" (json_shape (Lazy.force session).stats)

let test_health_shape () =
  if available () then
    check_golden "telemetry_health.txt" (json_shape (Lazy.force session).health)

let test_metrics_shape () =
  if available () then
    check_golden "telemetry_metrics.txt" (metrics_shape (Lazy.force session).metrics)

let test_dump_shape () =
  if available () then
    check_golden "telemetry_dump.txt" (dump_shape (Lazy.force session).dump)

let suite =
  [
    Alcotest.test_case "stats shape matches golden" `Quick test_stats_shape;
    Alcotest.test_case "health shape matches golden" `Quick test_health_shape;
    Alcotest.test_case "metrics shape matches golden" `Quick test_metrics_shape;
    Alcotest.test_case "SIGUSR1 dump shape matches golden" `Quick test_dump_shape;
  ]
