(** Always-on flight recorder: per-domain fixed-size rings of compact
    span/event/counter records — the process's one span store.

    The recorder runs from process start: every {!Span.with_} and
    {!Event.emit} lands one record in the calling domain's ring, whether
    or not the registry switch is on.  Every Chrome export reads it:
    the CLI's [--trace], [slif profile --trace], the bench's
    [SLIF_BENCH_TRACE] and the daemon's [dump] op all go through
    {!to_chrome}.
    When a request later proves slow or failing, its complete span tree
    is still in the window and can be retained — tail-based sampling
    without deciding anything up front.

    Cost per record: one atomic load ({!on}), a handful of array stores.
    Span ids come from one process-wide atomic counter ({!next_id}) so
    parent links survive domain hops (acceptor dispatch → pool worker).

    Readers merge the rings without locks; a live writer can overwrite
    the oldest slots mid-snapshot, so treat the oldest records of a
    busy ring as best-effort.  Everything else — ids, parents, trace
    ids — is exact. *)

type kind =
  | Span
  | Event
  | Counter  (** a counter-track sample; the value is in [fr_dur_ns] *)

type record = {
  fr_kind : kind;
  fr_name : string;
  fr_ts_ns : int;  (** absolute monotonic clock, ns *)
  fr_dur_ns : int;  (** 0 for instant events; the value for counters *)
  fr_id : int;  (** span id; 0 for events *)
  fr_parent : int;  (** parent span id; 0 = root *)
  fr_dom : int;  (** domain that wrote the record *)
  fr_trace : string;  (** ambient trace id; [""] = none *)
}

val on : unit -> bool
(** True (the default) when records are being written. *)

val enable : unit -> unit

val disable : unit -> unit
(** For the telemetry-off ablation baseline and quiet-ring tests. *)

val default_capacity : int
(** Per-domain ring slots (4096). *)

val trace_capacity : int
(** Per-domain ring slots (65536) for a run whose whole window is
    exported: the CLI's [--trace] and the bench's [SLIF_BENCH_TRACE]
    resize to it before the run.  The largest measured run, a full
    bench whose A12 phase synthesizes a 10^6-node graph, writes about
    34k records on its busiest domain. *)

val set_capacity : int -> unit
(** Resize every ring (clearing them) and set the capacity future
    domains allocate with.  Call at startup or a quiescent point. *)

val next_id : unit -> int
(** Mint a process-unique span id (one atomic fetch-and-add). *)

val record_span :
  ?trace:string ->
  id:int ->
  parent:int ->
  name:string ->
  t0_ns:int ->
  dur_ns:int ->
  unit ->
  unit
(** Write one completed span into the calling domain's ring. *)

val record_event : ?dur_ns:int -> string -> unit
(** Write one instant event; trace id and parent span come from the
    calling domain's ambient {!Registry} context. *)

val record_counter : string -> int -> unit
(** Write one counter-track sample ([record_counter name value]). *)

type ring_stat = {
  rs_dom : int;
  rs_capacity : int;
  rs_records : int;  (** records ever written *)
  rs_dropped : int;  (** overwritten by the ring wrapping *)
  rs_occupancy : int;  (** live records in the window *)
}

val ring_stats : unit -> ring_stat list
(** Per-domain ring health, ascending domain id. *)

val records_total : unit -> int

val dropped_total : unit -> int

val snapshot : unit -> record list
(** The whole window, all domains, ascending timestamp. *)

val by_trace : string -> record list
(** The window filtered to one trace id — the raw material for a
    retained trace tree. *)

val to_chrome : unit -> Json.t
(** The window as a Chrome [trace_event] object: spans as ["X"]
    complete events (one lane per domain) with [id]/[parent]/[trace_id]
    args, events as ["i"] instants, counter samples as ["C"] events;
    timestamps rebased to the window's oldest record.  [flightRecords]
    and [flightDropped] say whether the window wrapped. *)

val reset : unit -> unit
(** Empty every ring, e.g. so a profiled run's export holds that run
    alone. *)
