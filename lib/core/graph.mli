(** Adjacency queries over a SLIF access graph.

    {!make} builds the {!Compact} CSR rows once, so the estimators'
    GetBehChans(b) is a walk of [b]'s [out_off]/[out_chan] row,
    O(out-degree) (paper, Section 3.1).

    A [t] is immutable once built: it holds no lazy or mutable field, and
    nothing writes to its arrays, so any number of domains may query one
    graph at once (the daemon shares each resident graph between its
    workers). *)

type t

val make : Types.t -> t

val slif : t -> Types.t

val compact : t -> Compact.t
(** The struct-of-arrays mirror built by {!make} — the representation the
    estimation and engine hot paths index instead of the record lists. *)

val callers : t -> int -> int list
(** Source nodes of incoming [Call] channels, deduplicated. *)

val callees : t -> int -> int list
(** Destination behavior nodes of outgoing [Call] channels, deduplicated. *)

val has_call_cycle : t -> bool
(** True when the call-channel subgraph has a cycle — recursion in the
    specification (the paper notes an AG cycle represents recursion). *)

val reachable_from : t -> int -> int list
(** All nodes reachable from the given node over any channel kind,
    including itself. *)

val transitive_callers : t -> int -> int list
(** All behaviors whose execution time depends on the given node: the
    node itself (when a behavior) plus everything upstream over call
    channels — the invalidation set for incremental estimation. *)
