(* The always-on flight recorder: one fixed-size ring of compact records
   per domain, written on every span and event whether or not the
   registry is armed.  The process's one span store: the CLI's --trace
   export, the daemon's dump and tail-retained traces all read it.  When
   a request turns out slow or failing *after the fact*, its spans are
   still in the window and can be retained, without paying list
   allocation on the fast path.

   Hot-path cost budget: one atomic load (the [enabled] switch), one
   atomic fetch-and-add per span id, and a handful of array stores into
   the calling domain's ring.  No locks, no allocation (the record is
   spread over parallel arrays), no formatting.

   Readers (the daemon's [dump]/[traces] ops, SIGQUIT dumps) merge the
   rings racily: a live writer may overwrite the oldest slots while a
   snapshot walks them, so a reader can see a torn oldest record.  That
   is the black-box trade — snapshots are for forensics, and the
   records of a completed request are only at risk once the ring has
   wrapped past them. *)

type kind = Span | Event | Counter

type record = {
  fr_kind : kind;
  fr_name : string;
  fr_ts_ns : int;  (* absolute monotonic clock, ns *)
  fr_dur_ns : int;  (* the sampled value for a counter *)
  fr_id : int;  (* span id; 0 for events *)
  fr_parent : int;  (* parent span id; 0 = root *)
  fr_dom : int;
  fr_trace : string;  (* ambient trace id; "" = none *)
}

let default_capacity = 4096
let trace_capacity = 65536
let capacity = Atomic.make default_capacity

(* On by default — the whole point is that the window exists before
   anyone asks for it.  [disable] exists for the telemetry-off ablation
   baseline and for tests that need a quiet ring. *)
let enabled = Atomic.make true

let on () = Atomic.get enabled
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false

(* One ring per domain, parallel arrays so a record is a few plain
   stores.  [rg_head] counts records ever written; the live window is
   the last [min head cap] slots.  Only the owning domain writes. *)
type ring = {
  rg_dom : int;
  mutable rg_cap : int;
  mutable rg_head : int;
  mutable rg_kinds : Bytes.t;
  mutable rg_names : string array;
  mutable rg_ts : int array;
  mutable rg_durs : int array;
  mutable rg_ids : int array;
  mutable rg_parents : int array;
  mutable rg_traces : string array;
}

let alloc dom cap =
  {
    rg_dom = dom;
    rg_cap = cap;
    rg_head = 0;
    rg_kinds = Bytes.make cap '\000';
    rg_names = Array.make cap "";
    rg_ts = Array.make cap 0;
    rg_durs = Array.make cap 0;
    rg_ids = Array.make cap 0;
    rg_parents = Array.make cap 0;
    rg_traces = Array.make cap "";
  }

(* Same registration discipline as [Registry]: rings live on a global
   list so exporters can merge them, and a ring outlives its domain so
   a joined worker's tail stays readable. *)
let rings_mu = Mutex.create ()
let rings : ring list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let r = alloc (Domain.self () :> int) (Atomic.get capacity) in
      Mutex.lock rings_mu;
      rings := r :: !rings;
      Mutex.unlock rings_mu;
      r)

let ring () = Domain.DLS.get key

let fold_rings f acc =
  Mutex.lock rings_mu;
  let rs = !rings in
  Mutex.unlock rings_mu;
  List.fold_left f acc (List.sort (fun a b -> compare a.rg_dom b.rg_dom) rs)

(* Span ids are process-unique: the dispatch side mints one and the
   executing side (possibly another domain) parents under it, so one
   atomic counter is the simplest id space that cannot collide. *)
let ids = Atomic.make 1

let next_id () = Atomic.fetch_and_add ids 1

let write r kind ~name ~ts_ns ~dur_ns ~id ~parent ~trace =
  let i = r.rg_head mod r.rg_cap in
  Bytes.unsafe_set r.rg_kinds i
    (match kind with Span -> '\000' | Event -> '\001' | Counter -> '\002');
  r.rg_names.(i) <- name;
  r.rg_ts.(i) <- ts_ns;
  r.rg_durs.(i) <- dur_ns;
  r.rg_ids.(i) <- id;
  r.rg_parents.(i) <- parent;
  r.rg_traces.(i) <- trace;
  r.rg_head <- r.rg_head + 1

let record_span ?(trace = "") ~id ~parent ~name ~t0_ns ~dur_ns () =
  if Atomic.get enabled then
    write (ring ()) Span ~name ~ts_ns:t0_ns ~dur_ns ~id ~parent ~trace

(* Events take their causality from the calling domain's ambient
   context, so [Event.emit] and ad-hoc markers need no plumbing. *)
let record_event ?dur_ns name =
  if Atomic.get enabled then begin
    let trace = Option.value (Registry.current_trace ()) ~default:"" in
    let parent = Registry.current_span () in
    write (ring ()) Event ~name
      ~ts_ns:(Int64.to_int (Clock.now_ns ()))
      ~dur_ns:(Option.value dur_ns ~default:0)
      ~id:0 ~parent ~trace
  end

(* A counter-track sample: the value rides in the duration slot. *)
let record_counter name value =
  if Atomic.get enabled then
    write (ring ()) Counter ~name
      ~ts_ns:(Int64.to_int (Clock.now_ns ()))
      ~dur_ns:value ~id:0 ~parent:0 ~trace:""

(* --- Stats ----------------------------------------------------------------- *)

type ring_stat = {
  rs_dom : int;
  rs_capacity : int;
  rs_records : int;  (* ever written *)
  rs_dropped : int;  (* overwritten by the ring wrapping *)
  rs_occupancy : int;  (* live records in the window *)
}

let stat_of r =
  {
    rs_dom = r.rg_dom;
    rs_capacity = r.rg_cap;
    rs_records = r.rg_head;
    rs_dropped = max 0 (r.rg_head - r.rg_cap);
    rs_occupancy = min r.rg_head r.rg_cap;
  }

let ring_stats () = List.rev (fold_rings (fun acc r -> stat_of r :: acc) [])
let records_total () = fold_rings (fun acc r -> acc + r.rg_head) 0
let dropped_total () = fold_rings (fun acc r -> acc + max 0 (r.rg_head - r.rg_cap)) 0

(* --- Reads ----------------------------------------------------------------- *)

let ring_records acc r =
  let head = r.rg_head in
  let lo = max 0 (head - r.rg_cap) in
  let out = ref acc in
  for n = head - 1 downto lo do
    let i = n mod r.rg_cap in
    out :=
      {
        fr_kind =
          (match Bytes.get r.rg_kinds i with
          | '\000' -> Span
          | '\001' -> Event
          | _ -> Counter);
        fr_name = r.rg_names.(i);
        fr_ts_ns = r.rg_ts.(i);
        fr_dur_ns = r.rg_durs.(i);
        fr_id = r.rg_ids.(i);
        fr_parent = r.rg_parents.(i);
        fr_dom = r.rg_dom;
        fr_trace = r.rg_traces.(i);
      }
      :: !out
  done;
  !out

let snapshot () =
  fold_rings ring_records []
  |> List.stable_sort (fun a b -> compare a.fr_ts_ns b.fr_ts_ns)

let by_trace trace = List.filter (fun r -> r.fr_trace = trace) (snapshot ())

(* --- Chrome trace_event export --------------------------------------------- *)

(* The flight window as a Chrome/Perfetto trace: spans are complete
   events on their domain's lane, events are instants, counter samples
   are "C" events (Perfetto folds them into one track per name).
   Timestamps are rebased to the window's oldest record so the view
   opens at zero. *)
let to_chrome () =
  let records = snapshot () in
  let t0 = match records with [] -> 0 | r :: _ -> r.fr_ts_ns in
  let json_of r =
    let base args =
      [
        ("name", Json.String r.fr_name);
        ("ts", Json.Float (float_of_int (r.fr_ts_ns - t0) /. 1e3));
        ("pid", Json.Int 1);
        ("tid", Json.Int r.fr_dom);
        ("args", Json.Obj args);
      ]
    in
    let ids =
      [ ("id", Json.Int r.fr_id); ("parent", Json.Int r.fr_parent) ]
      @ if r.fr_trace = "" then [] else [ ("trace_id", Json.String r.fr_trace) ]
    in
    match r.fr_kind with
    | Span ->
        Json.Obj
          (base ids
          @ [
              ("ph", Json.String "X");
              ("dur", Json.Float (float_of_int r.fr_dur_ns /. 1e3));
            ])
    | Event -> Json.Obj (base ids @ [ ("ph", Json.String "i"); ("s", Json.String "t") ])
    | Counter ->
        Json.Obj (base [ ("value", Json.Int r.fr_dur_ns) ] @ [ ("ph", Json.String "C") ])
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map json_of records));
      ("displayTimeUnit", Json.String "ms");
      ("flightRecords", Json.Int (records_total ()));
      ("flightDropped", Json.Int (dropped_total ()));
    ]

(* --- Maintenance ------------------------------------------------------------ *)

(* Resize every ring (new rings pick the capacity up at creation).
   Meant for startup or quiescent points: a concurrent writer could
   race the swap and lose a record, never crash. *)
let set_capacity n =
  if n < 1 then invalid_arg "Flight.set_capacity";
  Atomic.set capacity n;
  fold_rings
    (fun () r ->
      r.rg_cap <- n;
      r.rg_head <- 0;
      r.rg_kinds <- Bytes.make n '\000';
      r.rg_names <- Array.make n "";
      r.rg_ts <- Array.make n 0;
      r.rg_durs <- Array.make n 0;
      r.rg_ids <- Array.make n 0;
      r.rg_parents <- Array.make n 0;
      r.rg_traces <- Array.make n "")
    ()

let reset () =
  fold_rings
    (fun () r ->
      r.rg_head <- 0;
      Array.fill r.rg_names 0 r.rg_cap "";
      Array.fill r.rg_traces 0 r.rg_cap "")
    ()
