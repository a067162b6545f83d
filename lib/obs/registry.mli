(** Process-global observability state, domain-safe.

    One registry per process: a master switch and, per domain that ever
    probed, a private cell of counter/histogram tables plus the
    causality context (ambient trace id, innermost open span id).
    Probes touch only their own domain's cell (reached through
    [Domain.DLS], never a lock), so the instrumented hot paths stay
    race-free when they run inside a {!Slif_util.Pool} worker; exporters
    merge the cells at read time.  Counters and histograms funnel
    through {!on} first, so a disabled registry costs exactly one atomic
    [bool] load and branch per probe (target: <5% overhead on
    [bench/main.ml]; measured in its A6 section).  Spans and events are
    not stored here: {!Flight} is the one span store.

    Merge semantics: counters sum across domains; histograms combine
    count/sum/min/max.  A domain's cell outlives the domain, so the data
    of joined pool workers survives until export.  {!enable},
    {!disable}, {!reset} and the exporters are meant to be called from
    quiescent points (no concurrent probes), as the CLI and bench
    drivers do. *)

val on : unit -> bool
(** True when recording is enabled.  Every probe in {!Counter} and
    {!Histogram} (and {!Span}'s duration histogram) checks this first
    and is a no-op when it is false. *)

val enable : unit -> unit
(** Turn recording on. *)

val disable : unit -> unit
(** Turn recording off; accumulated data is kept for export. *)

val reset : unit -> unit
(** Zero every domain's counters and histograms.  Does not change the
    enabled flag. *)

(** {2 Internal surface used by the sibling modules} *)

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
      (** log-spaced observation counts; the geometry (base, offset,
          width) is owned by {!Histogram} *)
}

val cell_words : int
(** Size of a padded counter cell in words.  The live value sits in slot
    0; the rest is padding so a cell owns its cache lines outright and a
    domain bumping its counter never invalidates a line another domain's
    counter lives on (the false-sharing fix the scaling work needed). *)

val new_cell : unit -> int array
(** A fresh zeroed padded cell. *)

type local = {
  dom : int;  (** [Domain.self] of the owning domain *)
  counters : (string, int array) Hashtbl.t;
      (** padded cells ({!cell_words} words, value in slot 0); zeroed in
          place by {!reset} so resolved {!Counter.cell} handles survive *)
  hists : (string, hist) Hashtbl.t;
  mutable trace : string option;  (** ambient request trace id, if any *)
  mutable span : int;
      (** innermost open span id (minted by {!Flight.next_id}, maintained
          by {!Span.with_}); 0 = none.  Children parent under it, and
          {!with_causality} carries it across domain hops. *)
}

val local : unit -> local
(** The calling domain's cell, created (and registered for export) on
    first use. *)

val fold_locals : ('a -> local -> 'a) -> 'a -> 'a
(** Fold over every domain's cell in ascending domain-id order — how the
    exporters merge.  Takes the registration lock only to snapshot the
    cell list. *)

val current_trace : unit -> string option
(** The calling domain's ambient trace id.  Spans opened while it is
    set carry it, and {!Event.emit} tags its lines with it.  Live
    whether or not recording is enabled. *)

val with_trace : string -> (unit -> 'a) -> 'a
(** Run [f] with the trace id set, restoring the previous id afterwards
    (even on raise); {!with_causality} with [~trace] alone. *)

val current_span : unit -> int
(** The calling domain's innermost open span id (0 = none).  Like
    {!current_trace}, live whether or not recording is enabled — the
    always-on flight recorder is its main consumer. *)

val with_causality : ?trace:string -> ?parent:int -> (unit -> 'a) -> 'a
(** Run [f] with the ambient trace id and/or parent span id set,
    restoring both afterwards (even on raise).  This is how request
    causality crosses a domain hop: the dispatching side captures
    {!current_trace}/{!current_span}, the executing side re-enters them
    here, and every span or event recorded inside parents correctly. *)
