type summary = { count : int; sum : float; min : float; max : float; mean : float }

type quantiles = {
  q_count : int;
  q_p50 : float;
  q_p90 : float;
  q_p99 : float;
  q_max : float;
}

(* --- Log-bucket geometry ---------------------------------------------------

   Observations land in geometrically spaced buckets: bucket [i] covers
   [gamma^(i-offset-1), gamma^(i-offset)).  gamma = 1.15 gives ~16.5
   buckets per decade, so a quantile read back from a bucket midpoint is
   within ~7% of the true value; 256 buckets span ~1.5e-5 .. 4e11, which
   in microseconds covers nanosecond probes up to multi-day runs. *)

let gamma = 1.15
let log_gamma = log gamma
let n_buckets = 256
let bucket_offset = 64

let bucket_of v =
  if not (Float.is_finite v) || v <= 0.0 then 0
  else
    let i = bucket_offset + 1 + int_of_float (Float.floor (log v /. log_gamma)) in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

(* Geometric midpoint of the bucket: the representative value quantile
   estimation reports. *)
let bucket_value i = Float.exp (log_gamma *. (float_of_int (i - bucket_offset) -. 0.5))

(* The observation count at or below which the q-quantile sits. *)
let rank_of q count =
  let r = int_of_float (Float.ceil (q *. float_of_int count)) in
  if r < 1 then 1 else if r > count then count else r

let quantile_of_buckets ~count ~max_seen buckets q =
  if count = 0 then nan
  else begin
    let rank = rank_of q count in
    let cum = ref 0 and result = ref max_seen in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + buckets.(i);
         if !cum >= rank then begin
           result := bucket_value i;
           raise Exit
         end
       done
     with Exit -> ());
    (* Never report past the true extreme of the distribution. *)
    Float.min !result max_seen
  end

let quantiles_of_buckets ~count ~max_seen buckets =
  let q x = quantile_of_buckets ~count ~max_seen buckets x in
  { q_count = count; q_p50 = q 0.5; q_p90 = q 0.9; q_p99 = q 0.99; q_max = max_seen }

(* --- Registry-named histograms -------------------------------------------- *)

let observe name v =
  if Registry.on () then begin
    let l = Registry.local () in
    match Hashtbl.find_opt l.Registry.hists name with
    | Some h ->
        h.Registry.h_count <- h.Registry.h_count + 1;
        h.h_sum <- h.h_sum +. v;
        if v < h.h_min then h.h_min <- v;
        if v > h.h_max then h.h_max <- v;
        let b = bucket_of v in
        h.h_buckets.(b) <- h.h_buckets.(b) + 1
    | None ->
        let buckets = Array.make n_buckets 0 in
        buckets.(bucket_of v) <- 1;
        Hashtbl.add l.Registry.hists name
          { Registry.h_count = 1; h_sum = v; h_min = v; h_max = v; h_buckets = buckets }
  end

let summary_of (h : Registry.hist) =
  {
    count = h.h_count;
    sum = h.h_sum;
    min = h.h_min;
    max = h.h_max;
    mean = (if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count);
  }

let merge a (b : Registry.hist) =
  {
    Registry.h_count = a.Registry.h_count + b.h_count;
    h_sum = a.h_sum +. b.h_sum;
    h_min = Float.min a.h_min b.h_min;
    h_max = Float.max a.h_max b.h_max;
    h_buckets = Array.map2 ( + ) a.h_buckets b.h_buckets;
  }

(* Reads merge every domain's observations of the name. *)
let merged_tbl () =
  let merged = Hashtbl.create 64 in
  Registry.fold_locals
    (fun () l ->
      Hashtbl.iter
        (fun name h ->
          match Hashtbl.find_opt merged name with
          | Some acc -> Hashtbl.replace merged name (merge acc h)
          | None ->
              Hashtbl.add merged name
                { Registry.h_count = h.Registry.h_count; h_sum = h.h_sum;
                  h_min = h.h_min; h_max = h.h_max;
                  h_buckets = Array.copy h.h_buckets })
        l.Registry.hists)
    ();
  merged

let summary name = Option.map summary_of (Hashtbl.find_opt (merged_tbl ()) name)

let quantiles name =
  Option.map
    (fun (h : Registry.hist) ->
      quantiles_of_buckets ~count:h.h_count ~max_seen:h.h_max h.h_buckets)
    (Hashtbl.find_opt (merged_tbl ()) name)

let snapshot () =
  Hashtbl.fold (fun name h acc -> (name, summary_of h) :: acc) (merged_tbl ()) []
  |> List.sort compare

(* One merged read feeding both views, so the pairs cannot drift under
   concurrent observation. *)
let snapshot_full () =
  Hashtbl.fold
    (fun name (h : Registry.hist) acc ->
      ( name,
        summary_of h,
        quantiles_of_buckets ~count:h.h_count ~max_seen:h.h_max h.h_buckets )
      :: acc)
    (merged_tbl ()) []
  |> List.sort compare

(* --- Standalone log-bucket histogram --------------------------------------

   Same geometry, no registry: always-on server telemetry records into
   these regardless of the master switch. *)

type t = {
  mutable t_count : int;
  mutable t_sum : float;
  mutable t_min : float;
  mutable t_max : float;
  t_buckets : int array;
}

let create () =
  {
    t_count = 0;
    t_sum = 0.0;
    t_min = Float.infinity;
    t_max = Float.neg_infinity;
    t_buckets = Array.make n_buckets 0;
  }

let record t v =
  t.t_count <- t.t_count + 1;
  t.t_sum <- t.t_sum +. v;
  if v < t.t_min then t.t_min <- v;
  if v > t.t_max then t.t_max <- v;
  let b = bucket_of v in
  t.t_buckets.(b) <- t.t_buckets.(b) + 1

let count t = t.t_count
let sum t = t.t_sum

let merge_into ~into t =
  into.t_count <- into.t_count + t.t_count;
  into.t_sum <- into.t_sum +. t.t_sum;
  if t.t_min < into.t_min then into.t_min <- t.t_min;
  if t.t_max > into.t_max then into.t_max <- t.t_max;
  Array.iteri (fun i n -> into.t_buckets.(i) <- into.t_buckets.(i) + n) t.t_buckets

let clear t =
  t.t_count <- 0;
  t.t_sum <- 0.0;
  t.t_min <- Float.infinity;
  t.t_max <- Float.neg_infinity;
  Array.fill t.t_buckets 0 n_buckets 0

let stats t =
  {
    count = t.t_count;
    sum = t.t_sum;
    min = t.t_min;
    max = t.t_max;
    mean = (if t.t_count = 0 then 0.0 else t.t_sum /. float_of_int t.t_count);
  }

let quantile t q =
  quantile_of_buckets ~count:t.t_count ~max_seen:t.t_max t.t_buckets q

let quantile_summary t =
  quantiles_of_buckets ~count:t.t_count ~max_seen:t.t_max t.t_buckets

(* --- Sliding window --------------------------------------------------------

   A ring of the most recent observations; quantiles over it are exact
   (sort of at most [capacity] floats at read time), so "recent p99"
   reflects what the daemon is doing now, not its lifetime average. *)

type window = { w_ring : float array; mutable w_next : int; mutable w_seen : int }

let default_window_capacity = 512

let window ?(capacity = default_window_capacity) () =
  if capacity < 1 then invalid_arg "Histogram.window: capacity must be at least 1";
  { w_ring = Array.make capacity 0.0; w_next = 0; w_seen = 0 }

let window_record w v =
  w.w_ring.(w.w_next) <- v;
  w.w_next <- (w.w_next + 1) mod Array.length w.w_ring;
  w.w_seen <- w.w_seen + 1

let window_size w = min w.w_seen (Array.length w.w_ring)

let window_quantiles w =
  let n = window_size w in
  if n = 0 then None
  else begin
    let sorted = Array.sub w.w_ring 0 n in
    Array.sort compare sorted;
    let at q = sorted.(rank_of q n - 1) in
    Some { q_count = n; q_p50 = at 0.5; q_p90 = at 0.9; q_p99 = at 0.99; q_max = sorted.(n - 1) }
  end

let window_sum w =
  let s = ref 0.0 in
  for i = 0 to window_size w - 1 do
    s := !s +. w.w_ring.(i)
  done;
  !s
