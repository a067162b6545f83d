(* The repository benchmark: one seeded workload per run.

     bench.exe --workload spec-corpus|synth-moves|daemon-mix
               --seed N --seconds S --trace 0|1 [--out FILE]

   Prints a summary and, as the last line of standard output, one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
   the metrics are the end-to-end ones; with --trace 1 they are the
   per-layer ones, from a run that records a span around every call the
   workload makes into a layer (see README.md).  Results go to stdout and,
   when --out is given, to that file (and FILE.spans.json for the spans);
   nothing else is written outside the run's scratch directory.  Exits 1
   when any output fails its oracle. *)

open Common
module Spans = Perfbench.Spans
module J = Slif_obs.Json

(* End-to-end metrics: every workload reports each of them. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("latency_us_p50", "us");
    ("latency_us_p90", "us");
    ("peak_rss_mb", "MB");
  ]

let layers = [ "vhdl"; "flow"; "core"; "store"; "synth"; "specsyn"; "util"; "server"; "obs" ]

(* Per-layer metrics.  A workload reports the ones its layers produce;
   a metric of a layer the workload does not exercise reads 0. *)
let per_layer =
  [
    ("vhdl.parse_us", "us"); ("vhdl.sem_us", "us"); ("flow.profile_us", "us");
    ("core.build_us", "us"); ("core.annotate_us", "us"); ("core.graph_make_us", "us");
    ("store.encode_v2_us", "us"); ("core.slif_objects", "count");
    ("specsyn.explore_ms.ans", "ms"); ("specsyn.explore_ms.ether", "ms");
    ("specsyn.explore_ms.fuzzy", "ms"); ("specsyn.explore_ms.vol", "ms");
    ("specsyn.algo_s.random", "s"); ("specsyn.algo_s.greedy", "s");
    ("specsyn.algo_s.gm", "s"); ("specsyn.algo_s.sa", "s"); ("specsyn.algo_s.cluster", "s");
    ("specsyn.partitions_per_round", "count"); ("specsyn.designs_per_s_jn.vol", "1/s");
    ("util.pool_tasks_per_explore", "count");
    ("gc.minor_words_per_pass", "words"); ("gc.minor_words_per_design", "words");
    ("synth.generate_s", "s"); ("core.graph_make_s", "s"); ("specsyn.engine_create_s", "s");
    ("store.save_v2_s", "s"); ("store.lazy_open_us", "us"); ("store.full_decode_s", "s");
    ("store.v2_bytes_per_node", "B"); ("specsyn.random_move_us_p50", "us");
    ("specsyn.propose_us_p50", "us"); ("specsyn.commit_us_p50", "us");
    ("specsyn.rollback_us_p50", "us"); ("specsyn.propose_us_p99", "us");
    ("core.estimate_hit_ratio", "ratio"); ("core.t_est_ms", "ms");
    ("core.est_exectime_ms", "ms"); ("core.est_size_io_ms", "ms"); ("core.est_bus_ms", "ms");
    ("gc.minor_words_per_move", "words");
    ("server.client_us_p50.estimate", "us"); ("server.client_us_p50.partition", "us");
    ("server.client_us_p50.batch", "us"); ("server.client_us_p50.load_fresh", "us");
    ("server.client_us_p50.store", "us");
    ("server.exec_us_p50.estimate", "us"); ("server.exec_us_p50.partition", "us");
    ("server.exec_us_p50.batch", "us"); ("server.exec_us_p50.load_fresh", "us");
    ("server.queue_wait_us_p50", "us"); ("server.queue_depth_p50", "count");
    ("server.lru_hit_ratio", "ratio"); ("server.select_idle_share", "ratio");
    ("server.loop_iterations_per_req", "count"); ("server.outq_overflows", "count");
    ("server.errors", "count"); ("server.gc_minor_words_per_req", "words");
    ("obs.flight_records_per_req", "count"); ("tail.latency_us_p99", "us");
  ]
  @ List.map (fun l -> ("self_share." ^ l, "ratio")) layers
  @ [
      ("trace.unattributed_share", "ratio"); ("trace.coverage", "ratio");
      ("trace.overhead_pct", "%"); ("trace.spans", "count");
    ]

let workloads =
  [
    ("spec-corpus", Spec_corpus.run);
    ("synth-moves", Synth_moves.run);
    ("daemon-mix", Daemon_mix.run);
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload spec-corpus|synth-moves|daemon-mix --seed N \
     --seconds S --trace 0|1 [--out FILE]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and out = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | "--out" :: v :: rest -> out := Some v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when List.mem_assoc w workloads && secs > 0.0 ->
      (w, s, secs, t, !out)
  | _ -> usage ()

type reference = { r_attempted : int; r_failed : int; r_throughput : float }

(* Run this benchmark untraced in a child process and read its result. *)
let untraced_reference ~workload ~seed ~seconds =
  let exe = Sys.executable_name in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let args =
    [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
       Printf.sprintf "%g" seconds; "--trace"; "0" |]
  in
  let pid = Unix.create_process exe args Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let field obj keys =
    List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some obj) keys
  in
  match (status, J.parse !last) with
  | Unix.WEXITED 0, Ok obj -> (
      match
        ( field obj [ "attempted" ],
          field obj [ "failed" ],
          field obj [ "metrics"; "throughput_per_s"; "value" ] )
      with
      | Some (J.Int a), Some (J.Int f), Some (J.Float t) ->
          { r_attempted = a; r_failed = f; r_throughput = t }
      | Some (J.Int a), Some (J.Int f), Some (J.Int t) ->
          { r_attempted = a; r_failed = f; r_throughput = float_of_int t }
      | _ -> { r_attempted = 1; r_failed = 1; r_throughput = 0.0 })
  | _ -> { r_attempted = 1; r_failed = 1; r_throughput = 0.0 }

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (k, v, u, extra) -> Printf.printf "  %-34s %14.4f %-6s %s\n" k v u extra) rows

let () =
  let t_start_us = now_us () in
  let workload, seed, seconds, trace, out = parse_args () in
  at_exit cleanup_scratch;
  (* Leave through [exit] on a signal so the daemon is stopped and the
     scratch directory removed. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  let run = List.assoc workload workloads in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d\n%!" workload seed
    seconds (if trace then 1 else 0) (nproc ());
  (* The traced run first measures the same workload untraced, in a
     fresh child process so neither run inherits the other's heap; the
     difference between the two is the tracing overhead. *)
  let reference =
    if trace then Some (untraced_reference ~workload ~seed ~seconds) else None
  in
  let t_run = now_us () in
  if trace then Spans.enable ();
  let o = run ~seed ~seconds ~t_start_us:(if trace then t_run else t_start_us) in
  Spans.disable ();
  let wall_us = now_us () -. t_run in
  let attempted, failed =
    match reference with
    | Some r -> (o.attempted + r.r_attempted, o.failed + r.r_failed)
    | None -> (o.attempted, o.failed)
  in
  let e2e =
    if List.mem_assoc "peak_rss_mb" o.e2e then o.e2e
    else o.e2e @ [ ("peak_rss_mb", peak_rss_mb "self") ]
  in
  (* Workloads scale each end-to-end timing (and the per-layer ones in
     [layers_scaled]) to reference host speed as they take it; the other
     per-layer timings are scaled here by the run's median kernel time. *)
  List.iter
    (fun (name, c) ->
      Printf.printf
        "host speed: %-28s kernel median %8.1f us over %3d samples (nominal %.0f)\n" name
        (Perfbench.Calib.nominal_us /. Perfbench.Calib.run_factor c)
        (Perfbench.Calib.count c) Perfbench.Calib.nominal_us)
    o.calib;
  let run_factor =
    match o.calib with (_, c) :: _ -> Perfbench.Calib.run_factor c | [] -> 1.0
  in
  let spans = Spans.all () in
  let metrics =
    if not trace then List.map (fun (k, u) -> (k, List.assoc k e2e, u)) end_to_end
    else begin
      let self = Spans.layer_self_us spans in
      let self_of l = Option.value ~default:0.0 (List.assoc_opt l self) in
      (* Calibration bursts and collections between set-ups are not the
         workload's time. *)
      let work_us = wall_us -. self_of Spans.calib_layer in
      let share l = self_of l /. work_us in
      let coverage = List.fold_left (fun acc l -> acc +. share l) 0.0 layers in
      let overhead =
        match reference with
        | Some r -> ((r.r_throughput /. List.assoc "throughput_per_s" o.e2e) -. 1.0) *. 100.0
        | None -> 0.0
      in
      let derived =
        List.map (fun l -> ("self_share." ^ l, share l)) layers
        @ [
            ("trace.unattributed_share", 1.0 -. coverage);
            ("trace.coverage", coverage);
            ("trace.overhead_pct", overhead);
            ("trace.spans", float_of_int (List.length spans));
          ]
      in
      Printf.printf
        "self time by layer (wall %.3f s less %.3f s of calibration and collection, \
         %d spans)\n"
        (wall_us /. 1e6) (self_of Spans.calib_layer /. 1e6) (List.length spans);
      List.iter
        (fun (l, us) ->
          if l <> Spans.calib_layer then
            Printf.printf "  %-12s %12.3f ms %7.2f%%\n" l (us /. 1e3) (100.0 *. us /. work_us))
        self;
      Printf.printf "  %-12s %12.3f ms %7.2f%%  (benchmark glue and untraced gaps)\n"
        "unattributed" ((1.0 -. coverage) *. work_us /. 1e3) (100.0 *. (1.0 -. coverage));
      Printf.printf "coverage %.2f%% of the workload's wall time (target >= 95%%)%s\n"
        (100.0 *. coverage)
        (if coverage >= 0.95 then "" else "  -- SHORTFALL");
      Printf.printf "tracing overhead: %.2f%% on throughput_per_s\n" overhead;
      List.map
        (fun (k, u) ->
          let v =
            match
              (List.assoc_opt k derived, List.assoc_opt k o.layers_scaled,
               List.assoc_opt k o.layers)
            with
            | Some v, _, _ | None, Some v, _ -> v
            | None, None, Some v when List.mem u [ "us"; "ms"; "s" ] -> v *. run_factor
            | None, None, Some v -> v
            | None, None, None -> 0.0
          in
          (k, v, u))
        per_layer
    end
  in
  print_table
    (if trace then "per-layer metrics" else "end-to-end metrics")
    (List.map
       (fun (k, v, u) ->
         let extra =
           match List.assoc_opt k o.samples with
           | Some n -> Printf.sprintf "(n=%d)" n
           | None -> ""
         in
         (k, v, u, extra))
       metrics);
  let correct = failed = 0 in
  Printf.printf "oracle checks: %d attempted, %d failed\n" attempted failed;
  let metrics_json =
    J.Obj
      (List.map
         (fun (k, v, u) -> (k, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
         metrics)
  in
  (match out with
  | Some path ->
      J.write_file path
        (J.Obj
           [
             ("workload", J.String workload);
             ("seed", J.Int seed);
             ("seconds", J.Float seconds);
             ("trace", J.Bool trace);
             ("nproc", J.Int (nproc ()));
             ("correct", J.Bool correct);
             ("attempted", J.Int attempted);
             ("failed", J.Int failed);
             ("metrics", metrics_json);
             ("samples", J.Obj (List.map (fun (k, n) -> (k, J.Int n)) o.samples));
           ]);
      if trace then J.write_file (path ^ ".spans.json") (Spans.to_json spans)
  | None -> ());
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", metrics_json);
          ]));
  exit (if correct then 0 else 1)
