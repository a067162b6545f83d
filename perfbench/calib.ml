(* Host-speed calibration.  The benchmark shares its machine: on the
   2-vCPU test box the same single-threaded preprocessing took anywhere
   from 6.5 to 11.3 ms within one minute as neighbours came and went,
   which swamps any change worth measuring.  So every workload runs short
   bursts of a fixed kernel between its measured operations (outside
   their timed intervals) and scales each measured duration to the host
   speed at which the kernel takes [nominal_us]:

     scaled = measured * nominal_us / median(the last [window] kernel times)

   The kernel is stdlib code only — hashing, list building and sorting,
   mostly short-lived allocation — which is the kind of work the program
   does: over one minute of the same preprocessing op, the op's median per
   50-op window spread 35% (interquartile share of the median) while its
   ratio to this kernel spread 6%; a pure integer loop tracked it to 16%
   and a cache-missing array walk to 29%.  A change to the program moves
   the measured times and leaves the kernel alone.

   The kernel is timed on the process CPU clock, which leaves out the
   time the host took the vCPU away (paravirtual steal accounting) — the
   passes whose wall time read 3-4x their median did not on this clock.
   Operations of this process, which the benchmark runs on one domain,
   are timed on the same clock.  Work in another process (the daemon) is
   timed on the wall clock and scaled by kernel samples taken in this
   process while that work runs: samples taken while the daemon idled did
   not track its speed (see README.md). *)

(* Kernel time, in microseconds, at the reference host speed — roughly
   this kernel's median on the 2-vCPU box the bounds were set on.  Scaled
   timings are in units of that host. *)
let nominal_us = 2500.0

let kernel () =
  let h = Hashtbl.create 16 in
  for i = 1 to 3000 do
    Hashtbl.replace h ((i * 7919) land 4095) (string_of_int i, [ i; i + 1 ])
  done;
  let l = List.init 5000 (fun i -> (i, float_of_int i)) in
  let l =
    List.sort (fun (a, _) (b, _) -> compare ((b * 31) land 1023) ((a * 31) land 1023)) l
  in
  Hashtbl.length h + List.length l

let cpu_now_us () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e6

type clock = Wall | Cpu

let now = function Wall -> Slif_obs.Clock.now_us () | Cpu -> cpu_now_us ()

type t = {
  clock : clock;
  window : int;  (** samples the current factor is the median of *)
  mutable recent : float list;  (** newest first, at most [window] *)
  mutable all : float list;
  mutable last_us : float;  (** wall time of the last sample *)
}

let interval_us = 100_000.0

let create ?(window = 5) clock =
  { clock; window; recent = []; all = []; last_us = neg_infinity }

let sample t =
  let d =
    Spans.call Spans.calib_layer "kernel" @@ fun () ->
    let t0 = now t.clock in
    ignore (Sys.opaque_identity (kernel ()));
    now t.clock -. t0
  in
  t.recent <- List.filteri (fun i _ -> i < t.window) (d :: t.recent);
  t.all <- d :: t.all;
  t.last_us <- Slif_obs.Clock.now_us ()

(* Take a sample when the last one is older than [interval_us].  Call it
   only between operations, never inside a timed interval. *)
let tick t = if Slif_obs.Clock.now_us () -. t.last_us >= interval_us then sample t

(* Start a new window: [factor] then takes the median of the samples
   from here on (up to [window] of them). *)
let restart t = t.recent <- []

(* Take [n] samples now. *)
let burst t n =
  for _ = 1 to n do
    sample t
  done

(* The factor that takes a duration measured now to reference speed. *)
let factor t =
  if t.recent = [] then sample t;
  nominal_us /. Stats.median (Array.of_list t.recent)

let scale t dt = dt *. factor t
let count t = List.length t.all

(* The factor for the run as a whole: the median of every sample. *)
let run_factor t =
  match t.all with [] -> 1.0 | l -> nominal_us /. Stats.median (Array.of_list l)
