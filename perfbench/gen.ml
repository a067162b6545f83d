(* Workload generators.  Every input a workload feeds the program is a
   pure function of the workload seed given on the command line: the
   same seed gives the same profile seeds, synthetic graph, move stream
   and request stream.  Each generator draws from its own derived stream
   ([Prng.derive ~root:seed k]) so adding draws to one never shifts
   another. *)

module Prng = Slif_util.Prng

let stream_profiles = 1
let stream_anneal = 2
let stream_synth = 3
let stream_moves = 4
let stream_requests = 5
let stream_store = 6

(* --- spec-corpus ------------------------------------------------------------ *)

(* The set of [Flow.Profiler.auto] seeds preprocessing passes cycle
   through: small, so every (spec, profile seed) pair repeats and its
   output can be checked against the first time it was produced, and the
   same for every workload seed, which only orders it ([permutation]).  A
   few profile seeds make a spec's profiling many times slower than its
   median (about 1 in 100 for ether), so a set drawn per workload seed
   would make T-slif's tail a property of the draw. *)
let profile_corpus_seed = 20_251_017

let profile_seeds ~count =
  let rng = Prng.derive ~root:profile_corpus_seed stream_profiles in
  Array.init count (fun _ -> 1 + Prng.int rng 1_000_000)

(* A seeded permutation of [0, n) (Fisher-Yates). *)
let permutation ~seed n =
  let rng = Prng.derive ~root:seed stream_profiles in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let anneal_seed ~seed = 1 + Prng.int (Prng.derive ~root:seed stream_anneal) 1_000_000

(* --- synth-moves ------------------------------------------------------------ *)

let synth_seed ~seed = Prng.int (Prng.derive ~root:seed stream_synth) 1_000_000
let store_synth_seed ~seed = Prng.int (Prng.derive ~root:seed stream_store) 1_000_000

let synth_params ~seed ~nodes =
  Slif_synth.Synth.default_params ~seed:(synth_seed ~seed) ~nodes Slif_synth.Synth.Mixed

(* The move stream runs as annealing chains: chain [k] draws its moves
   and its acceptance coins from its own stream, derived from the
   workload seed as [Specsyn.Annealing] derives one per restart. *)
let chain_rng ~seed k =
  Prng.derive ~root:(Prng.int (Prng.derive ~root:seed stream_moves) 1_000_000_000) k

(* Annealing's acceptance rule, as [Specsyn.Annealing.run_chain] applies
   it: a move to cost [c] from [cost] is committed when it is no worse,
   and otherwise with probability exp((cost - c) / temp); a rejected move
   is rolled back. *)
let accept rng ~temp ~cost c =
  c <= cost || (temp > 1e-9 && Prng.float rng 1.0 < exp ((cost -. c) /. temp))

(* --- daemon-mix --------------------------------------------------------------- *)

type algo = Greedy | Annealing

type request =
  | Estimate of int  (** bundled spec index *)
  | Partition of { spec : int; algo : algo; deadline : int }
  | Batch of int array  (** spec index per item *)
  | Load_fresh of { spec : int; salt : int }
  | Store_estimate

let batch_items = 8

(* Deadline variants per spec: 0 = none, 1.. = an index into the
   workload's table of (process, microseconds) bounds. *)
let deadline_variants = 3

let request_class = function
  | Estimate _ -> "estimate"
  | Partition _ -> "partition"
  | Batch _ -> "batch"
  | Load_fresh _ -> "load_fresh"
  | Store_estimate -> "store"

let classes = [ "estimate"; "partition"; "batch"; "load_fresh"; "store" ]

(* The request mix: 70% estimate, 15% partition, 5% batch of 8
   estimates, 7% load of a fresh source, 3% estimate on a store target.
   Returns a generator of the stream; [specs] is the number of bundled
   specifications. *)
let request_stream ~seed ~specs =
  let rng = Prng.derive ~root:seed stream_requests in
  let salt = ref 0 in
  fun () ->
    let r = Prng.int rng 100 in
    if r < 70 then Estimate (Prng.int rng specs)
    else if r < 85 then
      let spec = Prng.int rng specs in
      let algo = if Prng.bool rng then Greedy else Annealing in
      Partition { spec; algo; deadline = Prng.int rng deadline_variants }
    else if r < 90 then Batch (Array.init batch_items (fun _ -> Prng.int rng specs))
    else if r < 97 then begin
      incr salt;
      Load_fresh { spec = Prng.int rng specs; salt = (seed * 1_000_003) + !salt }
    end
    else Store_estimate

(* A bundled spec made new to the daemon's cache by a trailing comment:
   the graph is unchanged, the content hash is not. *)
let fresh_source source ~salt = Printf.sprintf "%s\n-- perfbench fresh source %d\n" source salt
