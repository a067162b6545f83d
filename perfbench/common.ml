(* Pieces every workload shares: the clock, process facts, the outcome a
   workload hands back to [Bench], and the scratch directory. *)

let now_us = Slif_obs.Clock.now_us

(* Processors the benchmark may load: every workload keeps its threads,
   domains and connections at or below this. *)
let nproc () = Domain.recommended_domain_count ()

(* Peak resident set ([VmHWM]) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM line in " ^ path)
  in
  scan ()

type outcome = {
  attempted : int;  (** operations the measurement issued *)
  failed : int;  (** failed or wrong: oracle mismatch, typed error, timeout *)
  e2e : (string * float) list;  (** end-to-end metric values by name *)
  samples : (string * int) list;  (** sample count behind each timing *)
  layers : (string * float) list;
      (** per-layer values (traced run); [Bench] scales their timings to
          reference host speed by the first calibration's run factor *)
  layers_scaled : (string * float) list;
      (** per-layer timings the workload has already scaled as it took
          them, segment by segment or pass by pass *)
  calib : (string * Perfbench.Calib.t) list;  (** the run's host-speed calibrations *)
}

(* Files a workload must write (store containers, daemon sockets) live
   here, relative to the checkout the benchmark runs in, and are removed
   when the run ends.  Unix socket paths are short this way too. *)
let scratch_dir = ".perfbench-tmp"

(* Names are fixed, not per process: the daemon's LRU shards graphs by a
   hash of their key, and a store target's key is its path, so a path
   that changed from run to run would change which cached specs the store
   target evicts.  Runs in one checkout therefore go one at a time. *)
let scratch_file name =
  if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
  Filename.concat scratch_dir name

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

let cleanup_scratch () =
  if Sys.file_exists scratch_dir then begin
    Array.iter
      (fun f -> remove_quietly (Filename.concat scratch_dir f))
      (Sys.readdir scratch_dir);
    try Sys.rmdir scratch_dir with Sys_error _ -> ()
  end

(* Repeat a set-up [n] times and keep the median duration in seconds.
   With [calib] it is timed on that calibration's clock and scaled to
   reference host speed (a kernel sample follows each repetition);
   without, on the wall clock, unscaled.  The first repetition is timed
   from process start.  The value of the last repetition is the one the
   workload measures with; [release] drops an earlier one before the next
   is built.  Between repetitions, untimed, a full major collection frees
   what the earlier one left, so neither its garbage nor the collector's
   pace decide the next one's time or the process's peak heap. *)
let repeated_setup ?calib ~n ~t_start_us ~release f =
  let durations = Array.make n 0.0 in
  let clock =
    match calib with Some c -> c.Perfbench.Calib.clock | None -> Perfbench.Calib.Wall
  in
  let rec go i prev =
    (match prev with
    | Some v ->
        release v;
        Perfbench.Spans.call Perfbench.Spans.calib_layer "full_major" Gc.full_major
    | None -> ());
    let t0 =
      match (i, clock) with
      | 0, Perfbench.Calib.Wall -> t_start_us
      | 0, Perfbench.Calib.Cpu -> 0.0 (* the process CPU clock starts at 0 *)
      | _ -> Perfbench.Calib.now clock
    in
    let v = f () in
    let dt = Perfbench.Calib.now clock -. t0 in
    let dt =
      match calib with
      | Some c ->
          Perfbench.Calib.sample c;
          Perfbench.Calib.scale c dt
      | None -> dt
    in
    durations.(i) <- dt /. 1e6;
    if i = n - 1 then v else go (i + 1) (Some v)
  in
  let v = go 0 None in
  (v, Perfbench.Stats.median durations)

(* Median of the [name] span durations per operation, each operation's
   durations summed first (one pass calls each stage once per spec). *)
let per_op_sum_median spans ~layer ~name =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Perfbench.Spans.span) ->
      if s.layer = layer && s.name = name then
        Hashtbl.replace tbl s.op
          (s.stop_us -. s.start_us +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.op)))
    spans;
  let v = Array.of_list (Hashtbl.fold (fun _ d acc -> d :: acc) tbl []) in
  if Array.length v = 0 then 0.0 else Perfbench.Stats.median v

let median_or_zero a = if Array.length a = 0 then 0.0 else Perfbench.Stats.median a
let p_or_zero a p = if Array.length a = 0 then 0.0 else Perfbench.Stats.percentile a p
