(** Scaling profiler for the parallel exploration stack.

    [slif profile] answers the question BENCH A8 raised: when doubling
    [-j] does not double throughput, where do the cores go?  The driver
    runs the same {!Explore} sweep once per requested domain count with
    the full profiling stack armed — span registry, {!Slif_obs.Lockprof},
    {!Slif_obs.Attribution}, {!Slif_obs.Gcprof} pause timing — and folds
    each run into one {!run} record: elapsed time and speedup versus the
    slowest-parallelism run, the per-domain wall-time attribution
    (task-run / queue-wait / lock-wait / GC / copy / idle), GC pressure
    and pause time, per-lock contention, task-duration and queue-latency
    quantiles, and per-domain memo hit rates.

    Profiling must never change what exploration computes, so every run
    also digests its result entries ((alloc, algo, cost, evaluated) per
    entry — everything except timing); {!t.identical} says the digests
    agreed across all domain counts, and the [-j] differential test
    holds it to [true].

    All switches the driver flips are restored to off when it returns;
    registry contents are reset between runs, so each {!run} reflects
    exactly one sweep. *)

type run = {
  p_jobs : int;
  p_elapsed_s : float;
  p_speedup : float;  (** elapsed of the lowest-jobs run / this run's elapsed *)
  p_tasks : int;  (** pool tasks the sweep submitted *)
  p_designs : int;  (** partitions evaluated ([explore.partitions_evaluated]) *)
  p_designs_per_s : float;
      (** [p_designs / p_elapsed_s] — the same counter BENCH A8 reads, so
          the profile's throughput column is comparable with
          [bench.a8.designs_per_s.jN] *)
  p_digest : string;  (** hex digest of the result entries, timing excluded *)
  p_report : Slif_obs.Attribution.report;
  p_gc : Slif_obs.Gcprof.counts;
  p_gc_time_us : float;  (** runtime/GC pause time (0.0 when timing unavailable) *)
  p_gc_lost_events : int;
  p_locks : Slif_obs.Lockprof.stat list;  (** locks that recorded acquisitions *)
  p_task_run : Slif_obs.Histogram.quantiles option;  (** [pool.task_run_us] *)
  p_task_queue_wait : Slif_obs.Histogram.quantiles option;  (** [pool.task_queue_wait_us] *)
  p_memo : (int * (int * int)) list;  (** per domain: (memo hits, misses) *)
}

type t = {
  spec_name : string;
  jobs : int list;  (** as requested, ascending *)
  runs : run list;  (** one per entry of [jobs], same order *)
  identical : bool;  (** all runs produced byte-identical result digests *)
}

val run :
  ?constraints:Cost.constraints ->
  ?weights:Cost.weights ->
  ?algos:Explore.algo list ->
  ?allocs:Alloc.t list ->
  ?chunk:int ->
  ?trace:(int -> string) ->
  name:string ->
  jobs:int list ->
  Slif.Types.t ->
  t
(** [run ~name ~jobs slif] sweeps the annotated SLIF once per domain
    count in [jobs] (deduplicated, ascending; [Invalid_argument] when
    empty or containing a count below 1).  [chunk] is forwarded to
    {!Explore.run}'s restart slicing (default: the
    {!Slif_util.Pool.default_chunk} heuristic).  [trace] maps a domain
    count to a file path: when given, each run's Chrome trace — the
    flight window's spans plus the pool's counter tracks — is written
    there before the window is reset for the next run. *)

val to_json : t -> Slif_obs.Json.t
(** The machine-readable scaling report, schema ["slif-profile/1"]. *)

val to_text : t -> string
(** The human rendering: a speedup curve and, per run, the attribution
    table with coverage, GC, lock and task-latency summaries. *)
