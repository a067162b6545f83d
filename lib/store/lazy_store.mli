(** Lazily decoded, memory-mapped v2 store containers.

    [open_file] maps the container with [Unix.map_file] and parses only
    the fixed-size header, the CRC-guarded section directory and the META
    section — a few hundred bytes of work however large the file is.
    Metadata queries (design name, object counts, the decoded-heap
    estimate) are then answered without touching the graph sections, which
    is how the daemon serves a graph larger than its LRU budget: the bytes
    stay in the page cache behind the mapping, and nothing lands on the
    OCaml heap until {!slif} forces a full decode.

    A handle is domain-safe: the mapping is read-only and the decode memo
    is guarded by a mutex, so worker domains can share one handle.  The
    memo holds the decoded graph {e weakly}: the caller keeps the only
    strong reference (the daemon's LRU), so dropping that reference really
    releases the heap — a long-lived handle never pins a decode.  Every
    completed full decode bumps the [store.lazy.full_decode] counter — the
    hook the "served without decoding" test assertions (and operators)
    watch. *)

type t

val open_file : string -> (t, Store.error) result
(** Maps the file and validates header + directory + META.  Legacy v1
    containers (which cannot be decoded piecemeal) yield
    [Unsupported_version 1], whose message says to rewrite the file with
    [slif store write]; a decision container yields [Decode].
    Malformed directories — including offset/length pairs engineered to
    overflow — yield a typed error, never an exception. *)

val file_size : t -> int
val design : t -> string
val meta : t -> Store.meta

val decoded_bytes_estimate : t -> int
(** META's write-time estimate of the decoded graph's heap bytes. *)

val stale : t -> bool
(** Whether the path now names different bytes than the mapping serves:
    [save_slif] renames a fresh inode over the old one, which the mmap
    pins.  True when the file was replaced, rewritten, or unlinked —
    callers should drop the handle and reopen. *)

val decoded : t -> bool
(** Whether a forced decode (graph or error) is currently memoized.
    Flips back to [false] once an evicted graph is collected. *)

val slif : t -> (Slif.Types.t * Store.provenance, Store.error) result
(** Force the full decode (per-section CRCs are verified now, not at
    open time) and bump [store.lazy.full_decode].  The result is
    memoized weakly — callers that keep it alive share one decode;
    once every caller drops it the memory is reclaimable and a later
    force decodes again. *)
