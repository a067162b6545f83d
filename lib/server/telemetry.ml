(* The daemon's telemetry as one typed snapshot, and its renderers.

   The acceptor builds a [t] once per telemetry request
   ([Server.telemetry]) — the only code that reads the daemon state, the
   GC and pool totals, the flight rings, the resident set and the
   profiled locks.  Every view here is a pure function of the snapshot:
   the [stats] and [health] response fields, the [metrics] Prometheus
   document, the flight block of [stats]/[dump], and the SIGUSR1 text
   dump. *)

module Obs = Slif_obs
module J = Obs.Json

type op_latency = {
  op : string;
  lifetime : Obs.Histogram.quantiles * float;
      (** log-bucket quantiles and sum over every request *)
  recent : Obs.Histogram.quantiles * float;
      (** exact quantiles and sum over the sliding window *)
}

type t = {
  uptime_s : float;
  served : int;  (** request lines answered *)
  errors : int;
  inflight : int;  (** open client connections *)
  last_error : string option;
  ops : op_latency list;  (** every op that served a request, ascending name *)
  workers : int;
  queue_depth : int;
  jobs_inflight : int;
  per_worker : int list;  (** completions by worker index *)
  batch_items : (string * int) list;  (** batch items executed, by op, ascending *)
  outq_overflows : int;
  dropped_responses : int;
  rejected_connections : int;
  select_idle_us : float;
  loop_iterations : int;
  queue_wait : (Obs.Histogram.quantiles * float) option;  (** [None] before any job *)
  lru : Lru.stats;
  gc : Obs.Gcprof.counts;
  gc_heap_words : int;
  gc_per_domain : (int * Obs.Gcprof.counts) list;
  pool : Slif_util.Pool.global_stats;
  rings : Obs.Flight.ring_stat list;
  retained : int;  (** traces ever tail-retained *)
  retained_live : int;
  dump_bytes : int;
  locks : Obs.Lockprof.stat list;  (** profiled locks that were acquired *)
  counters : (string * int) list;
  histograms : (string * Obs.Histogram.summary * Obs.Histogram.quantiles) list;
}

let sum_rings pick t = List.fold_left (fun acc r -> acc + pick r) 0 t.rings
let flight_records = sum_rings (fun (r : Obs.Flight.ring_stat) -> r.rs_records)
let flight_dropped = sum_rings (fun (r : Obs.Flight.ring_stat) -> r.rs_dropped)

let served_ops t =
  List.map (fun o -> (o.op, (fst o.lifetime).Obs.Histogram.q_count)) t.ops

(* --- JSON views ------------------------------------------------------------- *)

let gc_counts_fields (c : Obs.Gcprof.counts) =
  [
    ("minor_collections", J.Int c.minor_collections);
    ("major_collections", J.Int c.major_collections);
    ("compactions", J.Int c.compactions);
    ("minor_words", J.Float c.minor_words);
    ("promoted_words", J.Float c.promoted_words);
    ("major_words", J.Float c.major_words);
  ]

let pool_json t =
  let g = t.pool in
  J.Obj
    [
      ("pools_created", J.Int g.Slif_util.Pool.g_pools_created);
      ("pools_live", J.Int g.Slif_util.Pool.g_pools_live);
      ("tasks_submitted", J.Int g.Slif_util.Pool.g_tasks_submitted);
      ("tasks_completed", J.Int g.Slif_util.Pool.g_tasks_completed);
    ]

(* The flight-recorder block served by [stats] and [dump]. *)
let flight t =
  J.Obj
    [
      ("records", J.Int (flight_records t));
      ("dropped", J.Int (flight_dropped t));
      ("retained", J.Int t.retained);
      ("retained_live", J.Int t.retained_live);
      ("dump_bytes", J.Int t.dump_bytes);
      ( "rings",
        J.List
          (List.map
             (fun (r : Obs.Flight.ring_stat) ->
               J.Obj
                 [
                   ("domain", J.Int r.rs_dom);
                   ("capacity", J.Int r.rs_capacity);
                   ("records", J.Int r.rs_records);
                   ("dropped", J.Int r.rs_dropped);
                   ("occupancy", J.Int r.rs_occupancy);
                 ])
             t.rings) );
    ]

let quantiles_json (q : Obs.Histogram.quantiles) =
  J.Obj
    [
      ("count", J.Int q.q_count);
      ("p50", J.Float q.q_p50);
      ("p90", J.Float q.q_p90);
      ("p99", J.Float q.q_p99);
      ("max", J.Float q.q_max);
    ]

let stats t =
  [
    ("uptime_s", J.Float t.uptime_s);
    ("requests", J.Int t.served);
    ("errors", J.Int t.errors);
    ("by_op", J.Obj (List.map (fun (op, n) -> (op, J.Int n)) (served_ops t)));
    ( "lru",
      J.Obj
        [
          ("size", J.Int t.lru.size);
          ("capacity", J.Int t.lru.capacity);
          ("hits", J.Int t.lru.hits);
          ("misses", J.Int t.lru.misses);
          ("keys", J.List (List.map (fun k -> J.String k) t.lru.keys));
        ] );
    ( "server",
      J.Obj
        [
          ("workers", J.Int t.workers);
          ("queue_depth", J.Int t.queue_depth);
          ("jobs_inflight", J.Int t.jobs_inflight);
          ( "per_worker",
            J.Obj (List.mapi (fun w n -> (string_of_int w, J.Int n)) t.per_worker) );
          ("outq_overflows", J.Int t.outq_overflows);
          ("dropped_responses", J.Int t.dropped_responses);
          ("rejected_connections", J.Int t.rejected_connections);
        ] );
    (* The sliding window — what the daemon is doing now — not lifetime
       averages. *)
    ( "latency_us",
      J.Obj (List.map (fun o -> (o.op, quantiles_json (fst o.recent))) t.ops) );
    (* Process totals, current heap size, and the per-domain split (a hot
       worker shows up as the domain doing the collecting). *)
    ( "gc",
      J.Obj
        (gc_counts_fields t.gc
        @ [
            ("heap_words", J.Int t.gc_heap_words);
            ( "per_domain",
              J.Obj
                (List.map
                   (fun (dom, c) -> (string_of_int dom, J.Obj (gc_counts_fields c)))
                   t.gc_per_domain) );
          ]) );
    ("pool", pool_json t);
    ("flight", flight t);
  ]

let health t =
  [
    ("uptime_s", J.Float t.uptime_s);
    ("inflight", J.Int t.inflight);
    ("requests", J.Int t.served);
    ("errors", J.Int t.errors);
    ("workers", J.Int t.workers);
    ("queue_depth", J.Int t.queue_depth);
    ("lru", J.Obj [ ("size", J.Int t.lru.size); ("capacity", J.Int t.lru.capacity) ]);
    ( "gc",
      J.Obj
        [
          ("minor_collections", J.Int t.gc.minor_collections);
          ("major_collections", J.Int t.gc.major_collections);
          ("promoted_words", J.Float t.gc.promoted_words);
          ("heap_words", J.Int t.gc_heap_words);
        ] );
    ("pool", pool_json t);
    ("last_error", match t.last_error with Some msg -> J.String msg | None -> J.Null);
  ]

(* --- Prometheus ------------------------------------------------------------- *)

(* The [metrics] text exposition. *)
let metrics t =
  let module P = Obs.Prometheus in
  let counter name help samples = P.Counter { name; help; samples } in
  let gauge name help samples = P.Gauge { name; help; samples } in
  let summary name help series = P.Summary { name; help; series } in
  let one v = [ ([], v) ] in
  let num = float_of_int in
  let by label key pick xs = List.map (fun x -> ([ (label, key x) ], pick x)) xs in
  let per_domain pick =
    by "domain" (fun (d, _) -> string_of_int d) (fun (_, c) -> pick c) t.gc_per_domain
  in
  let per_ring pick =
    by "domain" (fun (r : Obs.Flight.ring_stat) -> string_of_int r.rs_dom) pick t.rings
  in
  let per_lock pick = by "lock" (fun (s : Obs.Lockprof.stat) -> s.s_name) pick t.locks in
  let op_series pick =
    List.map
      (fun o ->
        let q, sum = pick o in
        ([ ("op", o.op) ], q, sum))
      t.ops
  in
  let g = t.pool in
  P.to_string
    ([
       gauge "slif_server_uptime_seconds" "Seconds since the daemon started." (one t.uptime_s);
       gauge "slif_server_inflight_connections" "Open client connections."
         (one (num t.inflight));
       counter "slif_server_requests_total" "Requests served, by op."
         (by "op" fst (fun (_, n) -> num n) (served_ops t));
       counter "slif_server_errors_total" "Requests answered with an error."
         (one (num t.errors));
       gauge "slif_server_lru_entries" "Annotated graphs resident in the LRU."
         (one (num t.lru.size));
       gauge "slif_server_lru_capacity" "LRU capacity." (one (num t.lru.capacity));
       summary "slif_server_request_duration_microseconds"
         "Lifetime per-op request latency (log-bucket quantiles)."
         (op_series (fun o -> o.lifetime));
       summary "slif_server_recent_request_duration_microseconds"
         (Printf.sprintf "Exact quantiles over the most recent requests per op (window %d)."
            Obs.Histogram.default_window_capacity)
         (op_series (fun o -> o.recent));
       gauge "slif_server_workers" "Worker domains executing requests." (one (num t.workers));
       gauge "slif_server_queue_depth" "Jobs waiting in the dispatch queue."
         (one (num t.queue_depth));
       gauge "slif_server_jobs_inflight"
         "Dispatched request lines whose completion has not drained."
         (one (num t.jobs_inflight));
       counter "slif_server_outq_overflows_total" "Connections dropped for reading too slowly."
         (one (num t.outq_overflows));
       counter "slif_server_dropped_responses_total"
         "Responses discarded because their connection was gone."
         (one (num t.dropped_responses));
       counter "slif_server_rejected_connections_total"
         "Connections refused over the connection limit."
         (one (num t.rejected_connections));
     ]
    @ (match t.queue_wait with
      | None -> []
      | Some (q, sum) ->
          [
            summary "slif_server_queue_wait_microseconds"
              "Time jobs sat in the dispatch queue before a worker took them."
              [ ([], q, sum) ];
          ])
    @ [
        counter "slif_flight_records_total" "Flight-recorder records written, by domain."
          (per_ring (fun r -> num r.rs_records));
        counter "slif_flight_dropped_total"
          "Flight records overwritten by their ring wrapping, by domain."
          (per_ring (fun r -> num r.rs_dropped));
        gauge "slif_flight_ring_occupancy" "Live records in each domain's flight ring."
          (per_ring (fun r -> num r.rs_occupancy));
        counter "slif_flight_retained_traces_total"
          "Slow/error traces tail-retained since startup." (one (num t.retained));
        counter "slif_flight_dump_bytes_total"
          "Bytes of flight-window dumps written (dump op and SIGQUIT)."
          (one (num t.dump_bytes));
        counter "slif_server_lru_hits_total" "Lookups answered by the resident set."
          (one (num t.lru.hits));
        counter "slif_server_lru_misses_total"
          "Lookups that missed the resident set (decode or rebuild)."
          (one (num t.lru.misses));
        counter "slif_server_select_idle_seconds_total"
          "Time the acceptor spent parked in select with nothing to do."
          (one (t.select_idle_us /. 1e6));
        counter "slif_server_loop_iterations_total" "Acceptor-loop wake-ups."
          (one (num t.loop_iterations));
        counter "slif_gc_minor_collections_total" "Minor collections, by domain."
          (per_domain (fun c -> num c.minor_collections));
        counter "slif_gc_major_collections_total" "Major collection cycles, by domain."
          (per_domain (fun c -> num c.major_collections));
        counter "slif_gc_compactions_total" "Heap compactions, by domain."
          (per_domain (fun c -> num c.compactions));
        counter "slif_gc_minor_words_total" "Words allocated on minor heaps, by domain."
          (per_domain (fun c -> c.minor_words));
        counter "slif_gc_promoted_words_total"
          "Words promoted from minor to major heap, by domain."
          (per_domain (fun c -> c.promoted_words));
        counter "slif_gc_major_words_total"
          "Words allocated on the major heap (including promotions), by domain."
          (per_domain (fun c -> c.major_words));
        gauge "slif_gc_heap_words" "Current major-heap size of the process, in words."
          (one (num t.gc_heap_words));
        counter "slif_pool_pools_created_total" "Domain pools ever created."
          (one (num g.Slif_util.Pool.g_pools_created));
        gauge "slif_pool_pools_live" "Domain pools currently alive."
          (one (num g.Slif_util.Pool.g_pools_live));
        counter "slif_pool_tasks_submitted_total" "Tasks handed to pool map calls."
          (one (num g.Slif_util.Pool.g_tasks_submitted));
        counter "slif_pool_tasks_completed_total" "Pool tasks that ran to completion."
          (one (num g.Slif_util.Pool.g_tasks_completed));
      ]
    (* Lock families only appear once a profiled lock recorded something:
       with Lockprof disabled (the default) the list is empty. *)
    @ (if t.locks = [] then []
       else
         [
           counter "slif_lock_acquisitions_total" "Profiled-lock acquisitions, by lock."
             (per_lock (fun s -> num s.acquisitions));
           counter "slif_lock_contended_total" "Acquisitions that had to wait, by lock."
             (per_lock (fun s -> num s.contended));
           summary "slif_lock_wait_microseconds"
             "Time spent waiting to acquire each profiled lock."
             (List.map (fun (s : Obs.Lockprof.stat) ->
                  ([ ("lock", s.s_name) ], s.wait_quantiles, s.wait_us.sum))
                t.locks);
           summary "slif_lock_hold_microseconds" "Time each profiled lock was held."
             (List.map (fun (s : Obs.Lockprof.stat) ->
                  ([ ("lock", s.s_name) ], s.hold_quantiles, s.hold_us.sum))
                t.locks);
         ])
    @ [
        counter "slif_server_batch_items_total" "Batch items executed by this daemon, by op."
          (by "op" fst (fun (_, n) -> num n) t.batch_items);
        counter "slif_server_worker_requests_total"
          "Request lines executed by this daemon, by worker."
          (by "worker" fst (fun (_, n) -> num n)
             (List.mapi (fun w n -> (string_of_int w, n)) t.per_worker));
      ]
    @ List.map
        (fun (name, v) ->
          counter
            ("slif_" ^ P.sanitize_name name ^ "_total")
            (Printf.sprintf "Registry counter %s." name)
            (one (num v)))
        t.counters
    @ List.map
        (fun (name, (s : Obs.Histogram.summary), q) ->
          summary ("slif_" ^ P.sanitize_name name)
            (Printf.sprintf "Registry histogram %s." name)
            [ ([], q, s.sum) ])
        t.histograms)

(* --- SIGUSR1 dump ----------------------------------------------------------- *)

let dump t =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "--- slif serve telemetry ---\n\
     uptime_s: %.1f\n\
     requests: %d\n\
     errors:   %d\n\
     inflight: %d\n\
     workers:  %d (queue %d, jobs inflight %d)\n\
     lru:      %d/%d (hits %d, misses %d)\n"
    t.uptime_s t.served t.errors t.inflight t.workers t.queue_depth t.jobs_inflight
    t.lru.size t.lru.capacity t.lru.hits t.lru.misses;
  Option.iter (Printf.bprintf b "last_error: %s\n") t.last_error;
  Printf.bprintf b
    "flight:   %d records (%d dropped), %d traces retained (%d live), %d dump bytes\n"
    (flight_records t) (flight_dropped t) t.retained t.retained_live t.dump_bytes;
  List.iter
    (fun (r : Obs.Flight.ring_stat) ->
      Printf.bprintf b "  ring dom %d: %d/%d occupied, %d written, %d dropped\n" r.rs_dom
        r.rs_occupancy r.rs_capacity r.rs_records r.rs_dropped)
    t.rings;
  Printf.bprintf b "per-op latency, microseconds (lifetime p50/p90/p99/max | recent):\n";
  List.iter
    (fun o ->
      let (q : Obs.Histogram.quantiles), _ = o.lifetime in
      let (r : Obs.Histogram.quantiles), _ = o.recent in
      Printf.bprintf b "  %-10s %6d reqs  %.0f/%.0f/%.0f/%.0f | %.0f/%.0f/%.0f/%.0f\n" o.op
        q.q_count q.q_p50 q.q_p90 q.q_p99 q.q_max r.q_p50 r.q_p90 r.q_p99 r.q_max)
    t.ops;
  Buffer.add_string b "--- end telemetry ---\n";
  Buffer.contents b
