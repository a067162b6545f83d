type params = { initial_temp : float; cooling : float; steps : int; seed : int }

let default_params = { initial_temp = 1.0; cooling = 0.995; steps = 2000; seed = 7 }

(* One annealing chain over its own partition, engine and generator.
   [replica] substitutes a re-acquired per-domain engine for the fresh
   build — bitwise the same scoring, none of the construction cost. *)
let run_chain ?replica ~params ~initial ~rng (problem : Search.problem) =
  let s = Slif.Graph.slif problem.Search.graph in
  let part =
    match initial with Some p -> Slif.Partition.copy p | None -> Search.seed_partition s
  in
  let eng =
    match replica with
    | Some eng ->
        Engine.acquire eng part;
        eng
    | None -> Engine.of_problem problem part
  in
  let cost = ref (Engine.cost eng) in
  let best_part = ref (Slif.Partition.copy part) in
  let best_cost = ref !cost in
  let temp = ref params.initial_temp in
  for _ = 1 to params.steps do
    (match Engine.random_move eng rng with
    | None -> ()
    | Some move ->
        let c = Engine.propose eng move in
        Slif_obs.Counter.incr "search.moves_proposed";
        let accept =
          c <= !cost
          || (!temp > 1e-9
             && Slif_util.Prng.float rng 1.0 < exp ((!cost -. c) /. !temp))
        in
        if accept then begin
          Engine.commit eng;
          Slif_obs.Counter.incr "search.moves_accepted";
          cost := c;
          if c < !best_cost then begin
            best_cost := c;
            best_part := Slif.Partition.copy (Engine.partition eng)
          end
        end
        else begin
          Slif_obs.Counter.incr "search.moves_rejected";
          Engine.rollback eng
        end);
    temp := !temp *. params.cooling
  done;
  { Search.part = !best_part; cost = !best_cost; evaluated = Engine.moves_scored eng + 1 }

let run ?pool ?(restarts = 1) ?(params = default_params) ?initial ?chunk ?replica
    (problem : Search.problem) =
  if restarts <= 0 then invalid_arg "Annealing.run: restarts must be positive";
  Slif_obs.Span.with_ "search.annealing" @@ fun () ->
  if restarts = 1 then
    (* The single-chain path keeps the historical stream: the chain draws
       from [Prng.create params.seed] directly. *)
    let replica = Option.map (fun get -> get ()) replica in
    run_chain ?replica ~params ~initial ~rng:(Slif_util.Prng.create params.seed) problem
  else begin
    (* Chain [k] anneals from its own derived stream over its own cloned
       partition; the best chain (ties: lowest index) wins, so the
       restart sweep is a pure function of (params.seed, restarts).
       Chains are processed as contiguous chunks — one coarse task per
       chunk, all of a chunk's chains sharing the executing domain's
       replica when one is supplied — and per-chunk winners fold exactly
       like the chains themselves, so the chunk size never shows. *)
    let run_chunk (start, len) =
      let replica = Option.map (fun get -> get ()) replica in
      let chain k =
        run_chain ?replica ~params ~initial
          ~rng:(Slif_util.Prng.derive ~root:params.seed k)
          problem
      in
      let best = ref (chain start) in
      let evaluated = ref !best.Search.evaluated in
      for k = start + 1 to start + len - 1 do
        let sol = chain k in
        evaluated := !evaluated + sol.Search.evaluated;
        if sol.Search.cost < !best.Search.cost then best := sol
      done;
      (!best, !evaluated)
    in
    let jobs = match pool with Some p -> Slif_util.Pool.jobs p | None -> 1 in
    let chunk =
      match chunk with Some c -> c | None -> Slif_util.Pool.default_chunk ~jobs restarts
    in
    let pieces = Slif_util.Pool.chunks ~chunk restarts in
    let results =
      match pool with
      | Some pool -> Slif_util.Pool.map pool run_chunk pieces
      | None -> List.map run_chunk pieces
    in
    match results with
    | [] -> assert false
    | (first, first_eval) :: rest ->
        let best, evaluated =
          List.fold_left
            (fun ((best : Search.solution), acc) ((sol : Search.solution), ev) ->
              ((if sol.Search.cost < best.Search.cost then sol else best), acc + ev))
            (first, first_eval) rest
        in
        { best with Search.evaluated }
  end
