(* daemon-mix: a spawned [slif serve --socket] under a seeded request
   mix.  Here the server, its protocol JSON and the LRU of annotated
   graphs do most of the work; fresh-source loads make the working set
   larger than the cache, so the daemon evicts.

   The load is a closed loop from this one process: [nproc] connections
   (2 on a 2-core box), each keeping [window] pipelined requests in
   flight — the callers are tools that wait for their reply.  The daemon
   gets max(1, nproc - 1) workers and its default LRU.  Latency is taken
   client side, from writing a request line to reading its response
   line.  Every response is checked against the same answer computed in
   process through [Slif_server.Ops] and [Slif_server.Protocol]. *)

open Common
module Spans = Perfbench.Spans
module Gen = Perfbench.Gen
module J = Slif_obs.Json

let window = 4
let store_nodes = 10_000
let setups = 5
let health_interval_us = 250_000.0
let stall_timeout_us = 60e6

type spec_info = {
  name : string;
  source : string;
  slif : Slif.Types.t;
  key : string;
  estimate_fields : (string * J.t) list;
  load_fields : string -> (string * J.t) list;  (** given the source's key *)
  deadlines : string list array;  (** per deadline variant *)
}

(* --- the daemon process ------------------------------------------------------ *)

let daemon : int option ref = ref None

let cli () =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat "bin" "slif_cli.exe"))

let try_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let wait_exit pid ~timeout_s =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () -. t0 > timeout_s then false
        else begin
          Unix.sleepf 0.01;
          go ()
        end
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

let stop_daemon sock =
  match !daemon with
  | None -> ()
  | Some pid ->
      daemon := None;
      (match try_connect sock with
      | Some fd ->
          (try ignore (Unix.write_substring fd "{\"op\":\"shutdown\"}\n" 0 18)
           with Unix.Unix_error _ -> ());
          Unix.close fd
      | None -> ());
      if not (wait_exit pid ~timeout_s:10.0) then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (wait_exit pid ~timeout_s:10.0)
      end;
      remove_quietly sock

let spawn_daemon sock =
  let workers = max 1 (nproc () - 1) in
  remove_quietly sock;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close devnull) @@ fun () ->
    Unix.create_process (cli ())
      [| cli (); "serve"; "--socket"; sock; "--workers"; string_of_int workers |]
      Unix.stdin devnull Unix.stderr
  in
  daemon := Some pid;
  let t0 = Unix.gettimeofday () in
  let rec ready () =
    match try_connect sock with
    | Some fd -> Unix.close fd
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            daemon := None;
            failwith "daemon-mix: slif serve exited during start-up");
        if Unix.gettimeofday () -. t0 > 60.0 then failwith "daemon-mix: daemon never listened";
        Unix.sleepf 0.005;
        ready ()
  in
  ready ();
  pid

(* --- request lines and their expected answers ---------------------------------- *)

let str s = J.String s

let estimate_line name = J.to_string (J.Obj [ ("op", str "estimate"); ("spec", str name) ])

let algo_name = function Gen.Greedy -> "greedy" | Gen.Annealing -> "sa"

let partition_line name algo deadlines =
  J.to_string
    (J.Obj
       [
         ("op", str "partition");
         ("spec", str name);
         ("algo", str (algo_name algo));
         ("deadlines", J.List (List.map str deadlines));
       ])

let batch_line specs (items : int array) =
  J.to_string
    (J.Obj
       [
         ("op", str "batch");
         ( "items",
           J.List
             (Array.to_list
                (Array.map
                   (fun k -> J.Obj [ ("op", str "estimate"); ("spec", str specs.(k).name) ])
                   items)) );
       ])

let load_line source = J.to_string (J.Obj [ ("op", str "load"); ("source", str source) ])
let store_line path = J.to_string (J.Obj [ ("op", str "estimate"); ("store", str path) ])

(* Deadline variants: none, then the spec's first process under a tight
   and under a loose bound. *)
let deadline_table (slif : Slif.Types.t) =
  let first =
    Array.to_list slif.Slif.Types.nodes
    |> List.find_opt Slif.Types.is_process
    |> Option.map (fun (n : Slif.Types.node) -> n.n_name)
  in
  Array.init Gen.deadline_variants (fun v ->
      match (v, first) with
      | 0, _ | _, None -> []
      | v, Some p -> [ Printf.sprintf "%s=%d" p (if v = 1 then 1000 else 100_000) ])

let spec_info (spec : Specs.Registry.spec) =
  let slif =
    Spans.call "server" "ops_annotated" (fun () -> Slif_server.Ops.annotated spec.source)
  in
  let key =
    Spans.call "store" "cache_key" (fun () -> Slif_store.Cache.key ~source:spec.source ())
  in
  let output =
    Spans.call "server" "ops_estimate_output" (fun () -> Slif_server.Ops.estimate_output slif)
  in
  {
    name = spec.spec_name;
    source = spec.source;
    slif;
    key;
    estimate_fields = [ ("key", str key); ("output", str output) ];
    load_fields =
      (fun key ->
        [
          ("key", str key);
          ("design", str slif.Slif.Types.design_name);
          ("nodes", J.Int (Array.length slif.Slif.Types.nodes));
          ("channels", J.Int (Array.length slif.Slif.Types.chans));
        ]);
    deadlines = deadline_table slif;
  }

(* Every answer the stream can ask for except fresh loads, keyed by
   request line. *)
let expected_table specs ~store_path ~store_output =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun info ->
      Hashtbl.replace tbl (estimate_line info.name)
        (Slif_server.Protocol.ok info.estimate_fields);
      List.iter
        (fun algo ->
          Array.iter
            (fun deadlines ->
              let line = partition_line info.name algo deadlines in
              let output =
                Spans.call "server" "ops_partition_output" (fun () ->
                    let algo =
                      Result.get_ok (Slif_server.Ops.algo_of_string (algo_name algo))
                    in
                    let parse d = Result.get_ok (Slif_server.Ops.parse_deadline d) in
                    let constraints =
                      Slif_server.Ops.constraints_of_deadlines (List.map parse deadlines)
                    in
                    fst (Slif_server.Ops.partition_output ~algo ~constraints info.slif))
              in
              Hashtbl.replace tbl line
                (Slif_server.Protocol.ok [ ("key", str info.key); ("output", str output) ]))
            info.deadlines)
        [ Gen.Greedy; Gen.Annealing ])
    specs;
  Hashtbl.replace tbl (store_line store_path)
    (Slif_server.Protocol.ok
       [ ("key", str ("store:" ^ store_path)); ("output", str store_output) ]);
  tbl

(* The line to send for a generated request, and its expected response. *)
let materialize specs expected ~store_path (r : Gen.request) =
  let known line = (line, Hashtbl.find expected line) in
  match r with
  | Gen.Estimate k -> known (estimate_line specs.(k).name)
  | Gen.Partition { spec; algo; deadline } ->
      known (partition_line specs.(spec).name algo specs.(spec).deadlines.(deadline))
  | Gen.Store_estimate -> known (store_line store_path)
  | Gen.Batch items ->
      ( Spans.call "obs" "json_encode" (fun () -> batch_line specs items),
        Slif_server.Protocol.ok
          [
            ("count", J.Int (Array.length items));
            ( "results",
              J.List
                (Array.to_list
                   (Array.map
                      (fun k -> Slif_server.Protocol.ok_obj specs.(k).estimate_fields)
                      items)) );
          ] )
  | Gen.Load_fresh { spec; salt } ->
      let source = Gen.fresh_source specs.(spec).source ~salt in
      let key = Spans.call "store" "cache_key" (fun () -> Slif_store.Cache.key ~source ()) in
      ( Spans.call "obs" "json_encode" (fun () -> load_line source),
        Slif_server.Protocol.ok (specs.(spec).load_fields key) )

(* --- the closed loop ---------------------------------------------------------- *)

type pending = { p_class : string; p_t0 : float; p_expected : string option }

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;
  mutable out_off : int;
  inbuf : Buffer.t;
  inflight : pending Queue.t;
}

type loop_result = {
  completed : int;  (** responses read inside a segment *)
  checked : int;
  wrong : int;
  latencies : (string * float) list;  (** class, scaled us; completions inside a segment *)
  queue_depths : float list;
  segments : (float * float * float) list;
      (** per segment, scaled: completions per second, p50 and p90 latency in us *)
  wall_s : float;  (** summed segment wall time *)
}

let send conn line p =
  Buffer.add_string conn.out line;
  Buffer.add_char conn.out '\n';
  Queue.push p conn.inflight

let flush_out conn =
  let len = Buffer.length conn.out - conn.out_off in
  if len > 0 then
    match Unix.write_substring conn.fd (Buffer.contents conn.out) conn.out_off len with
    | n ->
        conn.out_off <- conn.out_off + n;
        if conn.out_off = Buffer.length conn.out then begin
          Buffer.clear conn.out;
          conn.out_off <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* The load runs in segments of [segment_s]: each fills every window,
   keeps it full until the segment ends, then drains.  Only completions
   inside a segment count.  While the load runs, the client takes a
   host-speed sample every [Calib.interval_us] between its rounds, and a
   segment's timings are scaled by the median of its own samples.  The
   end-to-end figures are medians over the segments of each segment's
   rate and latency percentiles, so a few seconds the host stalled do not
   move them. *)
let segment_s = 1.0

let closed_loop ~calib ~sock ~seconds ~trace ~next =
  let conns =
    List.init (nproc ()) (fun _ ->
        let fd =
          match try_connect sock with Some fd -> fd | None -> failwith "daemon-mix: connect"
        in
        Unix.set_nonblock fd;
        {
          fd;
          out = Buffer.create 65536;
          out_off = 0;
          inbuf = Buffer.create 65536;
          inflight = Queue.create ();
        })
  in
  let issue conn =
    let line, (cls, expected) = next () in
    send conn line { p_class = cls; p_t0 = now_us (); p_expected = Some expected }
  in
  let completed = ref 0 and checked = ref 0 and wrong = ref 0 in
  let latencies = ref [] and depths = ref [] in
  let segments = ref [] and wall_s = ref 0.0 in
  let chunk = Bytes.create 65536 in
  let segment () =
    Perfbench.Calib.restart calib;
    let seg_lat = ref [] and seg_done = ref 0 in
    (* First and last completion inside the segment: the rate is taken
       between them, while every window is full. *)
    let seg_first = ref 0.0 and seg_last = ref 0.0 in
    let t_begin = now_us () in
    let t_end = t_begin +. (Float.min segment_s (seconds -. !wall_s) *. 1e6) in
    let next_health = ref (t_begin +. health_interval_us) in
    let last_progress = ref t_begin in
    List.iter (fun c -> for _ = 1 to window do issue c done) conns;
    let on_line conn line =
      let p = Queue.pop conn.inflight in
      let t = now_us () in
      last_progress := t;
      incr checked;
      (match p.p_expected with
      | Some e -> if line <> e then incr wrong
      | None -> (
          (* A health sample: not an oracle answer, only a liveness one. *)
          match J.parse line with
          | Ok obj -> (
              match (J.member "ok" obj, J.member "queue_depth" obj) with
              | Some (J.Bool true), Some (J.Int d) -> depths := float_of_int d :: !depths
              | _ -> incr wrong)
          | Error _ -> incr wrong));
      if t <= t_end && p.p_expected <> None then begin
        if !seg_done = 0 then seg_first := t;
        seg_last := t;
        incr seg_done;
        seg_lat := (p.p_class, t -. p.p_t0) :: !seg_lat;
        issue conn
      end
    in
    (* Split the [n] bytes just read into lines, scanning only the new
       bytes: a response can be megabytes long. *)
    let rec take_lines conn pos n =
      match Bytes.index_from_opt chunk pos '\n' with
      | Some nl when nl < n ->
          Buffer.add_subbytes conn.inbuf chunk pos (nl - pos);
          let line = Buffer.contents conn.inbuf in
          Buffer.clear conn.inbuf;
          on_line conn line;
          take_lines conn (nl + 1) n
      | Some _ | None -> Buffer.add_subbytes conn.inbuf chunk pos (n - pos)
    in
    let busy () = List.exists (fun c -> not (Queue.is_empty c.inflight)) conns in
    while busy () do
      Perfbench.Calib.tick calib;
      Spans.op "round" @@ fun () ->
      let now = now_us () in
      if now -. !last_progress > stall_timeout_us then
        failwith "daemon-mix: no response for 60 s";
      (* The traced run samples the daemon's queue depth at a low rate. *)
      (if trace && now < t_end && now >= !next_health then
         let c = List.hd conns in
         next_health := now +. health_interval_us;
         send c "{\"op\":\"health\"}" { p_class = "health"; p_t0 = now; p_expected = None });
      List.iter (fun c -> Spans.call "server" "send" (fun () -> flush_out c)) conns;
      let fds = List.map (fun c -> c.fd) conns in
      let wfds =
        List.filter_map (fun c -> if Buffer.length c.out > 0 then Some c.fd else None) conns
      in
      match Spans.call "server" "wait" (fun () -> Unix.select fds wfds [] 1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
          List.iter
            (fun c ->
              if List.memq c.fd readable then
                match
                  Spans.call "server" "recv" (fun () ->
                      Unix.read c.fd chunk 0 (Bytes.length chunk))
                with
                | 0 -> failwith "daemon-mix: daemon closed a connection"
                | n -> take_lines c 0 n
                | exception
                    Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                    ())
            conns
    done;
    let f = Perfbench.Calib.factor calib in
    wall_s := !wall_s +. ((t_end -. t_begin) /. 1e6);
    let seg_lat = List.map (fun (c, d) -> (c, d *. f)) !seg_lat in
    let lat = Array.of_list (List.map snd seg_lat) in
    if !seg_done >= 2 then
      segments :=
        ( float_of_int (!seg_done - 1) /. ((!seg_last -. !seg_first) *. f /. 1e6),
          Perfbench.Stats.median lat,
          Perfbench.Stats.percentile lat 90.0 )
        :: !segments;
    completed := !completed + !seg_done;
    latencies := seg_lat @ !latencies
  in
  while !wall_s < seconds do
    segment ()
  done;
  List.iter (fun c -> Unix.close c.fd) conns;
  {
    completed = !completed;
    checked = !checked;
    wrong = !wrong;
    latencies = !latencies;
    queue_depths = !depths;
    segments = !segments;
    wall_s = !wall_s;
  }

(* --- daemon telemetry ------------------------------------------------------------ *)

let request sock line =
  let c = Slif_server.Client.connect_unix ~timeout_ms:60_000 sock in
  Fun.protect ~finally:(fun () -> Slif_server.Client.close c) @@ fun () ->
  Slif_server.Client.request_raw c line

let telemetry sock =
  Spans.call "obs" "stats_metrics" @@ fun () ->
  let stats = Result.get_ok (J.parse (request sock "{\"op\":\"stats\"}")) in
  let metrics = Result.get_ok (J.parse (request sock "{\"op\":\"metrics\"}")) in
  let text = match J.member "output" metrics with Some (J.String s) -> s | _ -> "" in
  (stats, text)

let rec path obj = function
  | [] -> Some obj
  | k :: rest -> Option.bind (J.member k obj) (fun v -> path v rest)

let num obj keys =
  match path obj keys with
  | Some (J.Int i) -> float_of_int i
  | Some (J.Float f) -> f
  | _ -> 0.0

(* The value of the first Prometheus sample line starting with [prefix]. *)
let prom text prefix =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         let n = String.length prefix in
         if String.length line > n && String.sub line 0 n = prefix then
           float_of_string_opt (String.trim (String.sub line n (String.length line - n)))
         else None)
  |> Option.value ~default:0.0

(* --- the workload ------------------------------------------------------------ *)

let run ~seed ~seconds ~t_start_us =
  let sock = scratch_file "daemon.sock" in
  let store_path = scratch_file "target.slifstore" in
  at_exit (fun () -> stop_daemon sock);
  let bundled = Array.of_list Specs.Registry.all in
  (* Set-up: the 10^4-node store target, the daemon, and an LRU primed
     with every bundled spec and the store target.  The priming answers
     are kept and checked once the in-process answers exist, after the
     timed set-ups. *)
  let prime_lines =
    Array.to_list
      (Array.map (fun (s : Specs.Registry.spec) -> estimate_line s.spec_name) bundled)
    @ [ store_line store_path ]
  in
  let primed = ref [] in
  let setup () =
    Spans.op "setup" @@ fun () ->
    let target =
      Spans.call "synth" "generate" (fun () ->
          Slif_synth.Synth.generate
            (Slif_synth.Synth.default_params ~seed:(Gen.store_synth_seed ~seed)
               ~nodes:store_nodes Slif_synth.Synth.Mixed))
    in
    Spans.call "store" "save_v2" (fun () ->
        Slif_store.Store.save_slif ~path:store_path ~version:2 target);
    let pid = Spans.call "server" "spawn" (fun () -> spawn_daemon sock) in
    List.iter
      (fun line ->
        primed := (line, Spans.call "server" "prime" (fun () -> request sock line)) :: !primed)
      prime_lines;
    (target, pid)
  in
  (* Set-up runs in both processes: it is timed on the wall clock,
     unscaled. *)
  let (target, pid), setup_s =
    repeated_setup ~n:setups ~t_start_us
      ~release:(fun _ -> Spans.call "server" "shutdown" (fun () -> stop_daemon sock))
      setup
  in
  (* The in-process answers every response is checked against. *)
  let specs, expected =
    Spans.op "oracle" @@ fun () ->
    let store_output =
      Spans.call "server" "ops_estimate_output" (fun () ->
          Slif_server.Ops.estimate_output target)
    in
    let specs = Array.map spec_info bundled in
    (specs, expected_table specs ~store_path ~store_output)
  in
  let prime_wrong =
    List.length
      (List.filter (fun (line, answer) -> answer <> Hashtbl.find expected line) !primed)
  in
  let stream = Gen.request_stream ~seed ~specs:(Array.length specs) in
  let next () =
    let r = stream () in
    let line, e = materialize specs expected ~store_path r in
    (line, (Gen.request_class r, e))
  in
  let stats0, metrics0 = telemetry sock in
  let trace = !Spans.enabled in
  let calib = Perfbench.Calib.create ~window:1000 Cpu in
  let res = closed_loop ~calib ~sock ~seconds ~trace ~next in
  let rss = peak_rss_mb (string_of_int pid) in
  let stats1, metrics1 = telemetry sock in
  Spans.call "server" "shutdown" (fun () -> stop_daemon sock);
  remove_quietly store_path;
  let d keys = num stats1 keys -. num stats0 keys in
  let dp prefix = prom metrics1 prefix -. prom metrics0 prefix in
  let requests = Float.max 1.0 (d [ "requests" ]) in
  let lat = Array.of_list (List.map snd res.latencies) in
  let class_p50 cls =
    List.filter_map (fun (c, v) -> if c = cls then Some v else None) res.latencies
    |> Array.of_list |> median_or_zero
  in
  let hits = d [ "lru"; "hits" ] and misses = d [ "lru"; "misses" ] in
  let layers =
    List.map
        (fun (name, op) ->
          ("server.exec_us_p50." ^ name, num stats1 [ "latency_us"; op; "p50" ]))
        [
          ("estimate", "estimate");
          ("partition", "partition");
          ("batch", "batch");
          ("load_fresh", "load");
        ]
    @ [
        ( "server.queue_wait_us_p50",
          prom metrics1 "slif_server_queue_wait_microseconds{quantile=\"0.5\"}" );
        ("server.queue_depth_p50", median_or_zero (Array.of_list res.queue_depths));
        ("server.lru_hit_ratio", hits /. Float.max 1.0 (hits +. misses));
        ("server.select_idle_share", dp "slif_server_select_idle_seconds_total" /. res.wall_s);
        ("server.loop_iterations_per_req", dp "slif_server_loop_iterations_total" /. requests);
        ("server.outq_overflows", d [ "server"; "outq_overflows" ]);
        ("server.errors", d [ "errors" ]);
        ("server.gc_minor_words_per_req", d [ "gc"; "minor_words" ] /. requests);
        ("obs.flight_records_per_req", d [ "flight"; "records" ] /. requests);
      ]
  in
  (* Client-side latencies are scaled segment by segment as they are taken. *)
  let layers_scaled =
    List.map (fun cls -> ("server.client_us_p50." ^ cls, class_p50 cls)) Gen.classes
    @ [ ("tail.latency_us_p99", Perfbench.Stats.percentile lat 99.0) ]
  in
  let seg f = median_or_zero (Array.of_list (List.map f res.segments)) in
  let errors = int_of_float (d [ "errors" ]) in
  {
    attempted = res.checked + List.length !primed;
    failed = res.wrong + errors + prime_wrong + if res.segments = [] then 1 else 0;
    e2e =
      [
        ("setup_s", setup_s);
        (* The median over segments, so one segment the host stalled does
           not move it. *)
        ("throughput_per_s", seg (fun (r, _, _) -> r));
        ("latency_us_p50", seg (fun (_, p50, _) -> p50));
        ("latency_us_p90", seg (fun (_, _, p90) -> p90));
        ("peak_rss_mb", rss);
      ];
    samples =
      [ ("setup_s", setups); ("throughput_per_s", res.completed);
        ("latency_us_p50", Array.length lat); ("latency_us_p90", Array.length lat) ];
    layers;
    layers_scaled;
    calib = [ ("client during load (cpu)", calib) ];
  }
