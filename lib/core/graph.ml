(* The compact struct-of-arrays mirror is the one representation: every
   adjacency query below reads its CSR rows.  A [t] holds no lazy or
   mutable field, so worker domains may share one built graph. *)
type t = { slif : Types.t; compact : Compact.t }

let make (s : Types.t) = { slif = s; compact = Compact.make s }

let slif t = t.slif
let compact t = t.compact

let dedup ids = List.sort_uniq compare ids

let callers t id =
  let cg = t.compact in
  let acc = ref [] in
  for k = cg.Compact.in_off.(id) to cg.Compact.in_off.(id + 1) - 1 do
    let c = cg.Compact.in_chan.(k) in
    if cg.Compact.chan_kind.(c) = Compact.kind_call then
      acc := cg.Compact.chan_src.(c) :: !acc
  done;
  dedup !acc

let callees t id =
  let cg = t.compact in
  let acc = ref [] in
  for k = cg.Compact.out_off.(id) to cg.Compact.out_off.(id + 1) - 1 do
    let c = cg.Compact.out_chan.(k) in
    if cg.Compact.chan_kind.(c) = Compact.kind_call && cg.Compact.chan_dst.(c) >= 0 then
      acc := cg.Compact.chan_dst.(c) :: !acc
  done;
  dedup !acc

let has_call_cycle t =
  let n = Array.length t.slif.nodes in
  (* 0 = unvisited, 1 = on stack, 2 = done *)
  let state = Array.make n 0 in
  let rec visit id =
    if state.(id) = 1 then true
    else if state.(id) = 2 then false
    else begin
      state.(id) <- 1;
      let cyclic = List.exists visit (callees t id) in
      state.(id) <- 2;
      cyclic
    end
  in
  let rec any id = id < n && (visit id || any (id + 1)) in
  any 0

let bfs ~next start =
  let seen = Hashtbl.create 16 in
  let rec loop acc = function
    | [] -> List.rev acc
    | id :: rest ->
        if Hashtbl.mem seen id then loop acc rest
        else begin
          Hashtbl.add seen id ();
          loop (id :: acc) (next id @ rest)
        end
  in
  loop [] [ start ]

let reachable_from t id =
  let cg = t.compact in
  bfs id ~next:(fun id ->
      let acc = ref [] in
      for k = cg.Compact.out_off.(id + 1) - 1 downto cg.Compact.out_off.(id) do
        let c = cg.Compact.out_chan.(k) in
        if cg.Compact.chan_dst.(c) >= 0 then acc := cg.Compact.chan_dst.(c) :: !acc
      done;
      !acc)

let transitive_callers t id =
  (* Any behavior with a channel to [id] depends on its mapping; so do that
     behavior's transitive accessors. *)
  let cg = t.compact in
  bfs id ~next:(fun id ->
      let acc = ref [] in
      for k = cg.Compact.in_off.(id) to cg.Compact.in_off.(id + 1) - 1 do
        acc := cg.Compact.chan_src.(cg.Compact.in_chan.(k)) :: !acc
      done;
      dedup !acc)
