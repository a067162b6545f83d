(* spec-corpus: the paper's own evaluation on the four bundled
   specifications.  It is the only workload where the front end (vhdl,
   flow, core annotate) does most of the work, and it runs specsyn on
   small graphs, where a fix to the large-graph bus rescan should leave
   designs/s unchanged.

   Two timed phases share the run:
   - preprocessing: passes over all four specs, VHDL text to annotated
     SLIF with a compact graph and store-v2 bytes (Figure 4's T-slif);
   - explore: [Specsyn.Explore.run] on the stock allocation catalog with
     all five algorithms, rounds over the four specs. *)

open Common
module Spans = Perfbench.Spans

let profile_seed_count = 64
let preprocess_share = 0.5

type spec_in = { name : string; source : string }

(* One preprocessing of one spec: the stages of Figure 4's T-slif. *)
let preprocess spec ~profile_seed =
  let design = Spans.call "vhdl" "parse" (fun () -> Vhdl.Parser.parse spec.source) in
  let sem = Spans.call "vhdl" "sem" (fun () -> Vhdl.Sem.build design) in
  let profile =
    Spans.call "flow" "profile" (fun () -> Flow.Profiler.auto ~seed:profile_seed sem)
  in
  let slif = Spans.call "core" "build" (fun () -> Slif.Build.build ~profile sem) in
  let slif =
    Spans.call "core" "annotate" (fun () ->
        Slif.Annotate.run ~profile ~techs:Tech.Parts.all sem slif)
  in
  let graph = Spans.call "core" "graph_make" (fun () -> Slif.Graph.make slif) in
  let stats = Spans.call "core" "stats" (fun () -> Slif.Stats.of_slif slif) in
  let bytes =
    Spans.call "store" "encode_v2" (fun () ->
        Slif_store.Store.slif_to_string ~version:2 (Slif.Graph.slif graph))
  in
  ignore (Sys.opaque_identity stats);
  bytes

(* The store round-trip oracle: the bytes decode, and the decoded SLIF
   re-encodes to the same bytes. *)
let roundtrip_ok bytes =
  match
    Spans.call "store" "roundtrip_decode" (fun () -> Slif_store.Store.slif_of_string bytes)
  with
  | Error _ -> false
  | Ok (slif, _) ->
      Spans.call "store" "roundtrip_encode" (fun () ->
          Slif_store.Store.slif_to_string ~version:2 slif)
      = bytes

let algos ~anneal_seed =
  [
    Specsyn.Explore.Random 50;
    Specsyn.Explore.Greedy;
    Specsyn.Explore.Group_migration;
    Specsyn.Explore.Annealing { Specsyn.Annealing.default_params with seed = anneal_seed };
    Specsyn.Explore.Clustering 4;
  ]

let algo_key = function
  | Specsyn.Explore.Random _ -> "random"
  | Specsyn.Explore.Greedy -> "greedy"
  | Specsyn.Explore.Group_migration -> "gm"
  | Specsyn.Explore.Annealing _ -> "sa"
  | Specsyn.Explore.Clustering _ -> "cluster"

let algo_keys = [ "random"; "greedy"; "gm"; "sa"; "cluster" ]

(* The cost oracle: an entry's cost equals [Cost.evaluate] on its
   partition, scored from scratch on a fresh estimator. *)
let cost_ok (e : Specsyn.Explore.entry) =
  let part = e.solution.Specsyn.Search.part in
  let graph =
    Spans.call "core" "graph_make" (fun () -> Slif.Graph.make (Slif.Partition.slif part))
  in
  let oracle =
    Spans.call "specsyn" "cost_evaluate" (fun () ->
        Specsyn.Cost.total ~constraints:Specsyn.Cost.no_constraints
          (Specsyn.Search.estimator graph part))
  in
  Float.abs (oracle -. e.solution.Specsyn.Search.cost)
  <= 1e-9 *. Float.max 1.0 (Float.abs oracle)

let report entries =
  Spans.call "specsyn" "report" (fun () ->
      Specsyn.Report.explore_report ~timings:false entries)

let run ~seed ~seconds ~t_start_us =
  let jobs = nproc () in
  let anneal_seed = Perfbench.Gen.anneal_seed ~seed in
  let algos = algos ~anneal_seed in
  let profile_seeds = Perfbench.Gen.profile_seeds ~count:profile_seed_count in
  let order = Perfbench.Gen.permutation ~seed profile_seed_count in
  let specs =
    List.map
      (fun (s : Specs.Registry.spec) -> { name = s.spec_name; source = s.source })
      Specs.Registry.all
    |> Array.of_list
  in
  (* Set-up: the annotated SLIFs exploration starts from. *)
  let setup () =
    Spans.op "setup" @@ fun () ->
      Array.map
        (fun spec ->
          let design = Spans.call "vhdl" "parse" (fun () -> Vhdl.Parser.parse spec.source) in
          let sem = Spans.call "vhdl" "sem" (fun () -> Vhdl.Sem.build design) in
          Spans.call "core" "annotate" (fun () ->
              Slif.Annotate.run ~techs:Tech.Parts.all sem (Slif.Build.build sem)))
        specs
  in
  let cpu = Perfbench.Calib.create Cpu in
  (* An explore call runs up to seconds: it is scaled by the median of
     three kernel samples taken right before and three right after it. *)
  let around = Perfbench.Calib.create ~window:6 Cpu in
  let annotated, setup_s =
    repeated_setup ~calib:cpu ~n:5 ~t_start_us ~release:ignore setup
  in
  let attempted = ref 0 and failed = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  (* Phase 1: preprocessing passes.  The first output of each (spec,
     profile seed) pair is its reference; every later pass must produce
     the same bytes, and every output must survive the store round trip. *)
  let reference = Array.map (fun _ -> Array.make profile_seed_count None) specs in
  let pass_ms = ref [] in
  let t_phase = now_us () in
  let budget_us = preprocess_share *. seconds *. 1e6 in
  let pass = ref 0 in
  (* Whole cycles of the profile-seed order only, so every run times each
     (spec, profile seed) pair equally often. *)
  while !pass mod profile_seed_count <> 0 || now_us () -. t_phase < budget_us do
    Perfbench.Calib.tick cpu;
    let i = !pass in
    (* A pass runs on one domain: timed on the CPU clock (see Calib). *)
    let outputs, dt =
      Spans.op "tslif_pass" @@ fun () ->
      let t0 = Perfbench.Calib.cpu_now_us () in
      let outs =
        Array.mapi
          (fun k spec ->
            let which = order.(i mod profile_seed_count) in
            (k, which, preprocess spec ~profile_seed:profile_seeds.(which)))
          specs
      in
      (outs, Perfbench.Calib.cpu_now_us () -. t0)
    in
    let which = order.(i mod profile_seed_count) in
    pass_ms := (which, Perfbench.Calib.scale cpu dt /. 1e3) :: !pass_ms;
    Array.iter
      (fun (k, which, bytes) ->
        let same =
          match reference.(k).(which) with
          | Some r -> bytes = r
          | None ->
              reference.(k).(which) <- Some bytes;
              true
        in
        check (same && roundtrip_ok bytes))
      outputs;
    incr pass
  done;
  let passes = !pass in
  let slif_objects =
    Array.fold_left
      (fun acc s ->
        let st = Spans.call "core" "stats" (fun () -> Slif.Stats.of_slif s) in
        acc + st.Slif.Stats.bv + st.Slif.Stats.channels)
      0 annotated
  in
  (* Phase 2: exploration rounds.  A round explores every (spec,
     allocation) pair of the stock catalog with all five algorithms, one
     [Explore.run] call per pair so no call runs long between host-speed
     samples.  Every round repeats the same seeded work, so each call's
     entry list must equal its first round's. *)
  let allocs = Array.of_list Specsyn.Alloc.catalog in
  let calls =
    Array.concat
      (Array.to_list (Array.mapi (fun k _ -> Array.map (fun a -> (k, a)) allocs) specs))
  in
  let ncalls = Array.length calls in
  let first_reports = Array.make ncalls "" in
  let call_s = Array.make ncalls [] and call_designs = Array.make ncalls 0 in
  let spec_ms = Array.make (Array.length specs) [] in
  let designs = ref 0 and rounds = ref 0 in
  let per_round_partitions = ref [] and per_round_algo = ref [] in
  let pool0 = Spans.call "util" "global_stats" Slif_util.Pool.global_stats in
  let t_phase = now_us () in
  let budget_us = (1.0 -. preprocess_share) *. seconds *. 1e6 in
  while !rounds = 0 || now_us () -. t_phase < budget_us do
    let algo_s = Hashtbl.create 8 in
    let round_partitions = ref 0 in
    let round_ms = Array.make (Array.length specs) 0.0 in
    Array.iteri
      (fun c (k, alloc) ->
        let spec = specs.(k) in
        Perfbench.Calib.burst around 3;
        Spans.op ("explore." ^ spec.name) @@ fun () ->
        let t0 = Perfbench.Calib.cpu_now_us () in
        let entries =
          Spans.call "specsyn" ("explore." ^ spec.name) (fun () ->
              Specsyn.Explore.run ~jobs:1 ~algos ~allocs:[ alloc ] annotated.(k))
        in
        let dt = Perfbench.Calib.cpu_now_us () -. t0 in
        Perfbench.Calib.burst around 3;
        call_s.(c) <- (Perfbench.Calib.scale around dt /. 1e6) :: call_s.(c);
        round_ms.(k) <- round_ms.(k) +. (dt /. 1e3);
        List.iter
          (fun (e : Specsyn.Explore.entry) ->
            let n = e.solution.Specsyn.Search.evaluated in
            designs := !designs + n;
            if !rounds = 0 then call_designs.(c) <- call_designs.(c) + n;
            round_partitions := !round_partitions + n;
            let key = algo_key e.algo in
            Hashtbl.replace algo_s key
              (e.elapsed_s +. Option.value ~default:0.0 (Hashtbl.find_opt algo_s key));
            check (cost_ok e))
          entries;
        let r = report entries in
        if !rounds = 0 then first_reports.(c) <- r else check (r = first_reports.(c)))
      calls;
    Array.iteri (fun k ms -> spec_ms.(k) <- ms :: spec_ms.(k)) round_ms;
    per_round_partitions := float_of_int !round_partitions :: !per_round_partitions;
    per_round_algo :=
      List.map
        (fun key -> (key, Option.value ~default:0.0 (Hashtbl.find_opt algo_s key)))
        algo_keys
      :: !per_round_algo;
    incr rounds
  done;
  let pool1 = Spans.call "util" "global_stats" Slif_util.Pool.global_stats in
  (* Once per run: vol's full-catalog entry list is the same at -j 1 and
     at -j nproc. *)
  let designs_per_s_jn =
    match Array.find_index (fun s -> s.name = "vol") specs with
    | Some k ->
        Spans.op "explore_jn.vol" @@ fun () ->
        let serial =
          Spans.call "specsyn" "explore_j1.vol" (fun () ->
              Specsyn.Explore.run ~jobs:1 ~algos annotated.(k))
        in
        let t0 = now_us () in
        let entries =
          Spans.call "specsyn" "explore_jn.vol" (fun () ->
              Specsyn.Explore.run ~jobs ~algos annotated.(k))
        in
        let dt = now_us () -. t0 in
        check (report entries = report serial);
        let n =
          List.fold_left
            (fun acc (e : Specsyn.Explore.entry) -> acc + e.solution.Specsyn.Search.evaluated)
            0 entries
        in
        float_of_int n /. (dt /. 1e6)
    | None ->
        check false;
        0.0
  in
  (* T-slif's percentiles are over the inputs: each profile seed's median
     pass time, so a pass that a collection or a host stall happened to
     land on does not decide the tail. *)
  let tslif =
    Array.init profile_seed_count (fun which ->
        List.filter_map (fun (w, ms) -> if w = which then Some ms else None) !pass_ms
        |> Array.of_list |> Perfbench.Stats.median)
  in
  let all_passes = Array.of_list (List.map snd !pass_ms) in
  (* Designs per second of a median round: every round repeats the same
     work, so each call's time is its median over rounds, and one call the
     host stalled does not move the rate. *)
  let designs_per_s =
    float_of_int (Array.fold_left ( + ) 0 call_designs)
    /. Array.fold_left
         (fun acc l -> acc +. Perfbench.Stats.median (Array.of_list l))
         0.0 call_s
  in
  let spans = Spans.all () in
  let stage name layer = per_op_sum_median spans ~layer ~name in
  (* Allocation of the program calls alone: the preprocessing stages of
     each pass, and the [Explore.run] calls of the rounds — not the
     oracles, the reports or the calibration kernel around them. *)
  let pass_words, _ = Spans.op_call_words spans ~op_name:"tslif_pass" in
  let explore_words =
    Array.fold_left
      (fun acc spec ->
        let name = "explore." ^ spec.name in
        acc
        +. fst
             (Spans.op_call_words spans ~op_name:name ~pick:(fun (s : Spans.span) ->
                  s.layer = "specsyn" && s.name = name)))
      0.0 specs
  in
  let median_l l = median_or_zero (Array.of_list l) in
  let layers =
    [
      ("vhdl.parse_us", stage "parse" "vhdl");
      ("vhdl.sem_us", stage "sem" "vhdl");
      ("flow.profile_us", stage "profile" "flow");
      ("core.build_us", stage "build" "core");
      ("core.annotate_us", stage "annotate" "core");
      ("core.graph_make_us", stage "graph_make" "core");
      ("store.encode_v2_us", stage "encode_v2" "store");
      ("core.slif_objects", float_of_int slif_objects);
      ("specsyn.partitions_per_round", median_l !per_round_partitions);
      ( "util.pool_tasks_per_explore",
        float_of_int (pool1.g_tasks_completed - pool0.g_tasks_completed)
        /. float_of_int (max 1 (!rounds * ncalls)) );
      ("gc.minor_words_per_pass", pass_words /. float_of_int (max 1 passes));
      ("gc.minor_words_per_design", explore_words /. float_of_int (max 1 !designs));
      ("specsyn.designs_per_s_jn.vol", designs_per_s_jn);
    ]
    @ Array.to_list
        (Array.mapi
           (fun k spec -> ("specsyn.explore_ms." ^ spec.name, median_l spec_ms.(k)))
           specs)
    @ List.map
        (fun key ->
          ( "specsyn.algo_s." ^ key,
            median_l (List.map (fun round -> List.assoc key round) !per_round_algo) ))
        algo_keys
  in
  {
    attempted = !attempted;
    failed = !failed;
    e2e =
      [
        ("setup_s", setup_s);
        ("throughput_per_s", designs_per_s);
        ("latency_us_p50", Perfbench.Stats.median tslif *. 1e3);
        ("latency_us_p90", Perfbench.Stats.percentile tslif 90.0 *. 1e3);
      ];
    samples =
      [ ("setup_s", 5); ("throughput_per_s", !rounds * ncalls); ("latency_us_p50", passes);
        ("latency_us_p90", passes) ];
    layers;
    layers_scaled =
      [ ("tail.latency_us_p99", Perfbench.Stats.percentile all_passes 99.0 *. 1e3) ];
    calib = [ ("passes, set-up (cpu)", cpu); ("explore calls (cpu)", around) ];
  }
