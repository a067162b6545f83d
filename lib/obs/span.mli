(** Nested monotonic-clock spans.

    [with_ "estimate.exectime" f] times [f ()] on the monotonic clock
    and writes one completed span into the calling domain's {!Flight}
    ring — the one span store, always on, read by every Chrome export.
    A span is recorded even when [f] raises.  While the {!Registry} is
    armed, each span also feeds the [span.<name>] histogram with its
    duration in microseconds.

    Every span carries a process-unique id and its parent's id (the
    innermost span open on the calling domain, or whatever
    {!Registry.with_causality} installed across a domain hop), so the
    flight window holds the call tree even with the registry off.

    Fully disabled (registry off {e and} flight off): the only cost is
    two atomic loads before calling [f]. *)

val with_ : string -> (unit -> 'a) -> 'a
(** Run the function under a named span. *)
