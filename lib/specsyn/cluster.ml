type params = { w_comm : float; w_shared : float; balance_limit : float }

let default_params = { w_comm = 1.0; w_shared = 0.2; balance_limit = 0.6 }

let size_proxy (node : Slif.Types.node) =
  match node.n_size with [] -> 1.0 | (_, v) :: _ -> max 1.0 v

(* Direct traffic between two nodes: bits x frequency over channels in
   either direction, summed along the CSR row in ascending channel id. *)
let traffic graph a b =
  let cg = Slif.Graph.compact graph in
  let one src dst =
    let acc = ref 0.0 in
    for k = cg.Slif.Compact.out_off.(src) to cg.Slif.Compact.out_off.(src + 1) - 1 do
      let c = cg.Slif.Compact.out_chan.(k) in
      if cg.Slif.Compact.chan_dst.(c) = dst then
        acc :=
          !acc +. (cg.Slif.Compact.chan_freq.(c) *. float_of_int cg.Slif.Compact.chan_bits.(c))
    done;
    !acc
  in
  one a b +. one b a

let shares_accessor graph a b =
  let cg = Slif.Graph.compact graph in
  let accesses src id =
    let rec go k =
      k < cg.Slif.Compact.in_off.(id + 1)
      && (cg.Slif.Compact.chan_src.(cg.Slif.Compact.in_chan.(k)) = src || go (k + 1))
    in
    go cg.Slif.Compact.in_off.(id)
  in
  let rec any k =
    k < cg.Slif.Compact.in_off.(a + 1)
    && (accesses cg.Slif.Compact.chan_src.(cg.Slif.Compact.in_chan.(k)) b || any (k + 1))
  in
  any cg.Slif.Compact.in_off.(a)

let closeness ?(params = default_params) graph a b =
  if a = b then 0.0
  else
    let comm = params.w_comm *. traffic graph a b in
    let shared = if shares_accessor graph a b then params.w_shared else 0.0 in
    comm +. shared

let clusters ?(params = default_params) graph ~k =
  if k < 1 then invalid_arg "Cluster.clusters: k must be positive";
  let s = Slif.Graph.slif graph in
  let n = Array.length s.Slif.Types.nodes in
  let total_size =
    Array.fold_left (fun acc node -> acc +. size_proxy node) 0.0 s.Slif.Types.nodes
  in
  (* Union-find over nodes, with cluster sizes for the balance penalty. *)
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let cluster_size = Array.map size_proxy s.Slif.Types.nodes in
  (* Pairwise closeness matrix between cluster representatives, updated on
     merge by summation (group-average-free linkage keeps it O(n^2)). *)
  let close = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let c = closeness ~params graph i j in
      close.(i).(j) <- c;
      close.(j).(i) <- c
    done
  done;
  let n_clusters = ref n in
  let continue_ = ref true in
  while !n_clusters > k && !continue_ do
    (* Best feasible pair of representatives. *)
    let best = ref None in
    for i = 0 to n - 1 do
      if find i = i then
        for j = i + 1 to n - 1 do
          if find j = j && close.(i).(j) > 0.0 then begin
            let merged_share = (cluster_size.(i) +. cluster_size.(j)) /. total_size in
            if merged_share <= params.balance_limit || !n_clusters <= k + 1 then
              match !best with
              | Some (_, _, c) when c >= close.(i).(j) -> ()
              | _ -> best := Some (i, j, close.(i).(j))
          end
        done
    done;
    match !best with
    | None -> continue_ := false
    | Some (i, j, _) ->
        Slif_obs.Counter.incr "search.cluster_merges";
        parent.(j) <- i;
        cluster_size.(i) <- cluster_size.(i) +. cluster_size.(j);
        for m = 0 to n - 1 do
          if m <> i then begin
            close.(i).(m) <- close.(i).(m) +. close.(j).(m);
            close.(m).(i) <- close.(i).(m)
          end
        done;
        decr n_clusters
  done;
  let buckets = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    let root = find i in
    Hashtbl.replace buckets root (i :: Option.value (Hashtbl.find_opt buckets root) ~default:[])
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) buckets []
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))

let run ?(params = default_params) ?replica ~k (problem : Search.problem) =
  Slif_obs.Span.with_ "search.clustering" @@ fun () ->
  let graph = problem.Search.graph in
  let s = Slif.Graph.slif graph in
  let groups = clusters ~params graph ~k in
  let part = Search.seed_partition s in
  (* Assign clusters largest-first onto the processor with the least
     accumulated size (memories only take all-variable clusters). *)
  let procs = Array.mapi (fun i _ -> (Slif.Partition.Cproc i, ref 0.0)) s.Slif.Types.procs in
  let group_size members =
    List.fold_left (fun acc id -> acc +. size_proxy s.Slif.Types.nodes.(id)) 0.0 members
  in
  let ordered =
    List.sort (fun a b -> compare (group_size b) (group_size a)) groups
  in
  List.iter
    (fun members ->
      let lightest =
        Array.fold_left
          (fun acc pair ->
            match acc with
            | None -> Some pair
            | Some (_, best_load) -> if !(snd pair) < !best_load then Some pair else acc)
          None procs
      in
      match lightest with
      | None -> ()
      | Some (target, load_ref) ->
          List.iter
            (fun id ->
              Slif.Partition.assign_node part ~node:id target;
              load_ref := !load_ref +. size_proxy s.Slif.Types.nodes.(id))
            members)
    ordered;
  let cost =
    match replica with
    | Some eng ->
        Engine.acquire eng part;
        Engine.cost eng
    | None -> Engine.cost (Engine.of_problem problem part)
  in
  { Search.part; cost; evaluated = 1 }
