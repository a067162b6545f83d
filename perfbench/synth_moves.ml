(* synth-moves: a long stream of engine moves on a 10^4-node Mixed
   [Slif_synth] graph.  This is where [Specsyn.Engine] and [Slif.Estimate]
   do nearly all the work, and it bypasses vhdl, flow and server.  A
   move's time grows about linearly with the graph (0.7 ms at 10^4 nodes,
   6 ms at 10^5), so the part that grows with the graph leads at either
   size.  Whole annealing chains differ in cost by up to 2x, and at 10^4
   nodes a 20 s run holds 25-35 of them instead of two (see README.md).

   The moves run as the chains of [Specsyn.Annealing] with its default
   parameters: one move is select ([Engine.random_move]), score
   ([propose]), then annealing's acceptance rule at the chain's
   temperature picks [commit] (a write) or [rollback] (a score-only
   read).  After [steps] draws the temperature has cooled and the next
   chain starts again from the seed partition, on its own derived stream.
   At fixed intervals the workload takes a T-est sample (a from-scratch
   estimate of the whole design on a fresh estimator) and checks
   [Engine.cost] against [Cost.evaluate]; neither is counted in the move
   time. *)

open Common
module Spans = Perfbench.Spans

let nodes = 10_000
let setups = 5
let checkpoints = 5
let anneal = Specsyn.Annealing.default_params

(* Draws per throughput sample: the rate is the median over blocks of
   this many draws; a chain is a whole number of blocks. *)
let block = 100
let () = assert (anneal.Specsyn.Annealing.steps mod block = 0)

type setup = {
  graph : Slif.Graph.t;
  engine : Specsyn.Engine.t;
  store_bytes : int;
  mutable decoded : Slif.Types.t option;  (** the store, opened and decoded *)
}

let is_process (n : Slif.Types.node) = Slif.Types.is_process n

(* Figure 4's T-est at scale, split into the three estimate families:
   execution time of every process, size and I/O of every component,
   bitrate of every bus.  Returns the three durations in ms. *)
let t_est graph part =
  let est =
    Spans.call "core" "estimator_create" (fun () -> Specsyn.Search.estimator graph part)
  in
  let slif = Slif.Graph.slif graph in
  let timed layer name f =
    let t0 = now_us () in
    Spans.call layer name f;
    (now_us () -. t0) /. 1e3
  in
  let exec =
    timed "core" "est_exectime" (fun () ->
        Array.iter
          (fun (n : Slif.Types.node) ->
            if is_process n then ignore (Slif.Estimate.exectime_us est n.n_id))
          slif.Slif.Types.nodes)
  in
  let comps = Specsyn.Search.all_comps slif in
  let size_io =
    timed "core" "est_size_io" (fun () ->
        List.iter
          (fun c ->
            ignore (Slif.Estimate.size est c);
            ignore (Slif.Estimate.io_pins est c))
          comps)
  in
  let bus =
    timed "core" "est_bus" (fun () ->
        Array.iteri
          (fun i _ -> ignore (Slif.Estimate.bus_bitrate_mbps est i))
          slif.Slif.Types.buses)
  in
  (exec, size_io, bus)

let run ~seed ~seconds ~t_start_us =
  let params = Perfbench.Gen.synth_params ~seed ~nodes in
  let store_path = scratch_file "synth.slifstore" in
  let layer_times = Hashtbl.create 16 in
  let note name dt =
    Hashtbl.replace layer_times name
      (dt :: Option.value ~default:[] (Hashtbl.find_opt layer_times name))
  in
  let timed name layer call f =
    let t0 = now_us () in
    let v = Spans.call layer call f in
    note name ((now_us () -. t0) /. 1e6);
    v
  in
  let setup_ok = ref true in
  (* Set-up: generate the graph, build the compact graph and the engine,
     write the v2 store, then open it lazily and decode it in full — the
     path a daemon takes to serve the same graph from disk.  The decoded
     graph is checked after the timed set-up ([verify]). *)
  let setup () =
    Spans.op "setup" @@ fun () ->
    let slif =
      timed "synth.generate_s" "synth" "generate" (fun () ->
          Slif_synth.Synth.generate params)
    in
    let graph =
      timed "core.graph_make_s" "core" "graph_make" (fun () -> Slif.Graph.make slif)
    in
    let engine =
      timed "specsyn.engine_create_s" "specsyn" "engine_create" (fun () ->
          Specsyn.Engine.create graph (Specsyn.Search.seed_partition slif))
    in
    timed "store.save_v2_s" "store" "save_v2" (fun () ->
        Slif_store.Store.save_slif ~path:store_path ~version:2 slif);
    let handle =
      timed "store.lazy_open_s" "store" "lazy_open" (fun () ->
          Slif_store.Lazy_store.open_file store_path)
    in
    let decoded =
      match handle with
      | Error _ -> None
      | Ok h -> (
          match
            timed "store.full_decode_s" "store" "full_decode" (fun () ->
                Slif_store.Lazy_store.slif h)
          with
          | Ok (decoded, _) -> Some decoded
          | Error _ -> None)
    in
    let store_bytes = (Unix.stat store_path).Unix.st_size in
    { graph; engine; store_bytes; decoded }
  in
  (* The store oracle: the decoded graph re-encodes to the very bytes the
     set-up saved, so a decoder that loses or corrupts any name,
     annotation, bus or channel fails it. *)
  let verify s =
    Spans.op "verify_store" @@ fun () ->
    let saved = In_channel.with_open_bin store_path In_channel.input_all in
    (match s.decoded with
    | None -> setup_ok := false
    | Some d ->
        if
          Spans.call "store" "reencode_v2" (fun () ->
              Slif_store.Store.slif_to_string ~version:2 d)
          <> saved
        then setup_ok := false);
    s.decoded <- None
  in
  let cpu = Perfbench.Calib.create Cpu in
  let s, setup_s = repeated_setup ~calib:cpu ~n:setups ~t_start_us ~release:verify setup in
  verify s;
  remove_quietly store_path;
  let attempted = ref 0 and failed = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  check !setup_ok;
  let engine = s.engine in
  let slif = Slif.Graph.slif s.graph in
  let est = Specsyn.Engine.estimate engine in
  let q0 = Slif.Estimate.stats_queries est and h0 = Slif.Estimate.stats_cache_hits est in
  let moves = ref 0 in
  let move_time_us = ref 0.0 in
  let t_est_ms = ref [] and est_parts = ref [] in
  let checkpoint () =
    Spans.op "checkpoint" @@ fun () ->
    let part =
      Spans.call "core" "partition_copy" (fun () ->
          Slif.Partition.copy (Specsyn.Engine.partition engine))
    in
    let exec, size_io, bus = t_est s.graph part in
    t_est_ms := (exec +. size_io +. bus) :: !t_est_ms;
    est_parts := (exec, size_io, bus) :: !est_parts;
    let oracle =
      Spans.call "specsyn" "cost_evaluate" (fun () ->
          (Specsyn.Cost.evaluate ~constraints:Specsyn.Cost.no_constraints
             (Specsyn.Search.estimator s.graph part))
            .Specsyn.Cost.total)
    in
    let cost = Spans.call "specsyn" "engine_cost" (fun () -> Specsyn.Engine.cost engine) in
    check (Float.abs (oracle -. cost) <= 1e-9 *. Float.max 1.0 (Float.abs oracle))
  in
  (* The annealing chain: its stream, position, temperature and cost. *)
  let chain = ref 0 and step = ref 0 in
  let rng = ref (Perfbench.Gen.chain_rng ~seed 0) in
  let temp = ref anneal.initial_temp in
  let cost = ref (Specsyn.Engine.cost engine) in
  let accepted = ref 0 and rejected = ref 0 in
  (* The run measures whole chains: once the time budget is spent it
     finishes the chain in progress.  Late moves of a chain cost more than
     early ones, so a chain cut off by the budget would weigh early moves
     more the faster the host runs.  [chain_*] collect the current chain
     (scaled move times; moves and scaled time per block of [block]
     draws) and move to [whole_*] when it completes. *)
  let chain_moves = ref [] and chain_blocks = ref [] in
  let whole_moves = ref [] and whole_blocks = ref [] and whole_chains = ref 0 in
  let block_moves = ref 0 and block_us = ref 0.0 in
  let budget_us = seconds *. 1e6 in
  let interval_us = budget_us /. float_of_int checkpoints in
  let next_check = ref interval_us in
  (* The engine's memo is warm after set-up; the first checkpoint comes
     after the first interval of moves. *)
  while !move_time_us < budget_us || !step < anneal.steps do
    if !move_time_us >= !next_check then begin
      checkpoint ();
      next_check := !next_check +. interval_us
    end;
    if !step = anneal.steps then begin
      (* The next chain starts from the seed partition (untimed). *)
      incr chain;
      step := 0;
      rng := Perfbench.Gen.chain_rng ~seed !chain;
      temp := anneal.initial_temp;
      Spans.call "specsyn" "acquire" (fun () ->
          Specsyn.Engine.acquire engine (Specsyn.Search.seed_partition slif));
      cost := Spans.call "specsyn" "engine_cost" (fun () -> Specsyn.Engine.cost engine)
    end;
    Perfbench.Calib.tick cpu;
    let rng = !rng in
    let t0 = now_us () and c0 = Perfbench.Calib.cpu_now_us () in
    (* A draw that lands on the object's current place is skipped, as
       annealing skips it; its time still counts, and the chain cools. *)
    let moved =
      Spans.op "move" @@ fun () ->
      match
        Spans.call "specsyn" "random_move" (fun () -> Specsyn.Engine.random_move engine rng)
      with
      | None -> false
      | Some m ->
          let c = Spans.call "specsyn" "propose" (fun () -> Specsyn.Engine.propose engine m) in
          if Perfbench.Gen.accept rng ~temp:!temp ~cost:!cost c then begin
            Spans.call "specsyn" "commit" (fun () -> Specsyn.Engine.commit engine);
            incr accepted;
            cost := c
          end
          else begin
            Spans.call "specsyn" "rollback" (fun () -> Specsyn.Engine.rollback engine);
            incr rejected
          end;
          true
    in
    (* Moves run on one domain: timed on the CPU clock (see Calib); the
       wall clock only bounds the run. *)
    let dt = now_us () -. t0 and cpu_dt = Perfbench.Calib.cpu_now_us () -. c0 in
    incr step;
    temp := !temp *. anneal.cooling;
    move_time_us := !move_time_us +. dt;
    let scaled = Perfbench.Calib.scale cpu cpu_dt in
    block_us := !block_us +. scaled;
    if moved then begin
      chain_moves := scaled :: !chain_moves;
      incr block_moves;
      incr moves
    end;
    if !step mod block = 0 then begin
      chain_blocks := (!block_moves, !block_us) :: !chain_blocks;
      block_moves := 0;
      block_us := 0.0
    end;
    if !step = anneal.steps then begin
      whole_moves := List.rev_append !chain_moves !whole_moves;
      whole_blocks := List.rev_append !chain_blocks !whole_blocks;
      chain_moves := [];
      chain_blocks := [];
      incr whole_chains
    end
  done;
  checkpoint ();
  let q1 = Slif.Estimate.stats_queries est and h1 = Slif.Estimate.stats_cache_hits est in
  let moves_a = Array.of_list !whole_moves in
  let measured = Array.length moves_a in
  (* Moves per second of each block of a whole chain; the median, so a
     block the host stalled does not move it. *)
  let block_rates =
    Array.of_list
      (List.map (fun (m, us) -> float_of_int m /. (us /. 1e6)) !whole_blocks)
  in
  let spans = Spans.all () in
  let move_words, _ = Spans.op_call_words spans ~op_name:"move" in
  let p50 name = median_or_zero (Spans.durations spans ~layer:"specsyn" ~name) in
  let med name =
    Option.value ~default:[] (Hashtbl.find_opt layer_times name)
    |> Array.of_list |> median_or_zero
  in
  let part i = median_or_zero (Array.of_list (List.map i !est_parts)) in
  let layers =
    [
      ("synth.generate_s", med "synth.generate_s");
      ("core.graph_make_s", med "core.graph_make_s");
      ("specsyn.engine_create_s", med "specsyn.engine_create_s");
      ("store.save_v2_s", med "store.save_v2_s");
      ("store.lazy_open_us", med "store.lazy_open_s" *. 1e6);
      ("store.full_decode_s", med "store.full_decode_s");
      ("store.v2_bytes_per_node", float_of_int s.store_bytes /. float_of_int nodes);
      ("specsyn.random_move_us_p50", p50 "random_move");
      ("specsyn.propose_us_p50", p50 "propose");
      ("specsyn.commit_us_p50", p50 "commit");
      ("specsyn.rollback_us_p50", p50 "rollback");
      ( "specsyn.propose_us_p99",
        p_or_zero (Spans.durations spans ~layer:"specsyn" ~name:"propose") 99.0 );
      ( "core.estimate_hit_ratio",
        float_of_int (h1 - h0) /. float_of_int (max 1 (q1 - q0)) );
      ("core.t_est_ms", median_or_zero (Array.of_list !t_est_ms));
      ("core.est_exectime_ms", part (fun (e, _, _) -> e));
      ("core.est_size_io_ms", part (fun (_, s, _) -> s));
      ("core.est_bus_ms", part (fun (_, _, b) -> b));
      ("gc.minor_words_per_move", move_words /. float_of_int (max 1 !moves));
    ]
  in
  Printf.printf
    "annealing: %d chain(s) of %d draws, %d moves (%.1f s), %d accepted, %d rejected (%.1f%%)\n"
    !whole_chains anneal.steps measured (!move_time_us /. 1e6) !accepted !rejected
    (100.0 *. float_of_int !accepted /. float_of_int (max 1 (!accepted + !rejected)));
  {
    attempted = !attempted + !moves;
    failed = !failed;
    e2e =
      [
        ("setup_s", setup_s);
        ("throughput_per_s", Perfbench.Stats.median block_rates);
        ("latency_us_p50", Perfbench.Stats.median moves_a);
        ("latency_us_p90", Perfbench.Stats.percentile moves_a 90.0);
      ];
    samples =
      [ ("setup_s", setups); ("throughput_per_s", Array.length block_rates);
        ("latency_us_p50", measured); ("latency_us_p90", measured) ];
    layers;
    layers_scaled = [ ("tail.latency_us_p99", Perfbench.Stats.percentile moves_a 99.0) ];
    calib = [ ("moves, set-up (cpu)", cpu) ];
  }
