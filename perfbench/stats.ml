(* Summary statistics over timing samples.  The quartile rule is the one
   Python's [statistics.quantiles(data, n=4)] applies (the default
   "exclusive" method), so a spread computed here matches one computed
   from the same values by a script that gates on the benchmark. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0, 100]";
  let a = sorted xs in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let quartiles xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let a = sorted xs in
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let med = median xs in
  if med = 0.0 then invalid_arg "Stats.spread: median is zero";
  (q3 -. q1) /. Float.abs med
