(** Named value distributions: count / sum / min / max / mean plus
    log-bucketed quantile estimation (p50 / p90 / p99 / max).

    {!Span.with_} feeds a [span.<name>] histogram with every span's
    duration in microseconds, so per-phase timing statistics come for
    free in the metrics export.

    Three shapes share one bucket geometry (base 1.15, ~16.5 buckets per
    decade, so estimated quantiles are within ~7% of the true value):

    - the registry-named histograms below ({!observe}, {!summary},
      {!quantiles}) — per-domain cells merged at read time, gated by the
      registry switch;
    - a standalone lifetime histogram {!t} — no registry, no switch;
      the daemon's always-on per-op latency telemetry;
    - a sliding {!window} of the most recent observations with {e exact}
      quantiles, so [stats] can report what the process is doing now
      rather than its lifetime average. *)

type summary = { count : int; sum : float; min : float; max : float; mean : float }

type quantiles = {
  q_count : int;
  q_p50 : float;
  q_p90 : float;
  q_p99 : float;
  q_max : float;  (** exact, not bucketed *)
}

val observe : string -> float -> unit
(** Record one observation.  No-op while the registry is disabled. *)

val summary : string -> summary option
(** [None] for a histogram that never observed a value. *)

val quantiles : string -> quantiles option
(** Estimated p50/p90/p99 (bucket midpoints, never above the true max)
    plus the exact max. *)

val snapshot : unit -> (string * summary) list
(** All histograms, sorted by name. *)

val snapshot_full : unit -> (string * summary * quantiles) list
(** Summary and quantiles from one merged read, sorted by name. *)

(** {2 Standalone lifetime histogram} *)

type t

val create : unit -> t

val record : t -> float -> unit

val count : t -> int

val sum : t -> float

val clear : t -> unit
(** Zero the histogram in place (count, sum, extremes, buckets). *)

val stats : t -> summary

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0,1]; [nan] when empty. *)

val quantile_summary : t -> quantiles

(** {2 Sliding window} *)

type window

val default_window_capacity : int
(** 512 observations. *)

val window : ?capacity:int -> unit -> window
(** Raises [Invalid_argument] when [capacity < 1]. *)

val window_record : window -> float -> unit
(** O(1); overwrites the oldest observation once full. *)

val window_size : window -> int
(** Observations currently held (≤ capacity). *)

val window_quantiles : window -> quantiles option
(** Exact quantiles of the held observations; [None] when empty. *)

val window_sum : window -> float
(** Sum of the held observations (0 when empty) — the [_sum] that
    pairs with {!window_quantiles}' [q_count]. *)
