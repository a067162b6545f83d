let random_partition rng (s : Slif.Types.t) =
  let part = Slif.Partition.create s in
  (* Candidate arrays are built once per partition, so each draw is O(1)
     instead of the List.nth walk this used to do. *)
  let procs = Array.init (Array.length s.procs) (fun i -> Slif.Partition.Cproc i) in
  let all =
    Array.append procs (Array.init (Array.length s.mems) (fun m -> Slif.Partition.Cmem m))
  in
  Array.iteri
    (fun i (node : Slif.Types.node) ->
      let choices =
        match node.n_kind with Slif.Types.Behavior _ -> procs | Slif.Types.Variable _ -> all
      in
      let comp = choices.(Slif_util.Prng.int rng (Array.length choices)) in
      Slif.Partition.assign_node part ~node:i comp)
    s.nodes;
  Array.iteri
    (fun i _ ->
      Slif.Partition.assign_chan part ~chan:i
        ~bus:(Slif_util.Prng.int rng (Array.length s.buses)))
    s.chans;
  part

(* Earlier restart wins ties, matching the serial first-strictly-better
   fold — so the selected solution is independent of execution order. *)
let best_of solutions =
  match solutions with
  | [] -> invalid_arg "Random_part: no solutions"
  | first :: rest ->
      List.fold_left
        (fun (best : Search.solution) (sol : Search.solution) ->
          if sol.Search.cost < best.Search.cost then sol else best)
        first rest

(* Restart [k] draws from its own derived stream, never from a shared
   generator, so every restart is a pure function of (seed, k) and a
   sweep result is bit-identical whether the pool runs it on one domain
   or eight — and, because [Engine.acquire] rescoring is bitwise
   [Engine.create]'s, whether it scored on a per-domain replica or a
   fresh engine. *)
let eval_one ?replica ~seed (problem : Search.problem) s k =
  let rng = Slif_util.Prng.derive ~root:seed k in
  let part = random_partition rng s in
  let cost =
    match replica with
    | Some get ->
        let eng = get () in
        Engine.acquire eng part;
        Engine.cost eng
    | None -> Engine.cost (Engine.of_problem problem part)
  in
  { Search.part; cost; evaluated = 1 }

(* A range evaluates a contiguous index run and keeps its earliest
   strict minimum — the same left fold [best_of] does, so folding
   per-range winners afterwards selects the same restart for every
   slicing of the index space. *)
let run_range ?replica ?(seed = 1) ~start ~len (problem : Search.problem) =
  if start < 0 || len <= 0 then invalid_arg "Random_part.run_range: bad range";
  Slif_obs.Counter.add "search.restarts" len;
  let s = Slif.Graph.slif problem.Search.graph in
  let best = ref (eval_one ?replica ~seed problem s start) in
  for k = start + 1 to start + len - 1 do
    let sol = eval_one ?replica ~seed problem s k in
    if sol.Search.cost < !best.Search.cost then best := sol
  done;
  { !best with Search.evaluated = len }

let run ?pool ?(seed = 1) ?chunk ?replica ~restarts (problem : Search.problem) =
  if restarts <= 0 then invalid_arg "Random_part.run: restarts must be positive";
  Slif_obs.Span.with_ "search.random" @@ fun () ->
  let jobs = match pool with Some p -> Slif_util.Pool.jobs p | None -> 1 in
  let chunk =
    match chunk with Some c -> c | None -> Slif_util.Pool.default_chunk ~jobs restarts
  in
  let pieces = Slif_util.Pool.chunks ~chunk restarts in
  let run_chunk (start, len) = run_range ?replica ~seed ~start ~len problem in
  let bests =
    match pool with
    | Some pool -> Slif_util.Pool.map pool run_chunk pieces
    | None -> List.map run_chunk pieces
  in
  { (best_of bests) with Search.evaluated = restarts }
