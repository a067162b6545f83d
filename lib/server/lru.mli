(** The daemon's resident set: a small, domain-safe least-recently-used
    cache keyed by content hash ({!Slif_store.Cache.key}, or
    [store:<path>]).

    The daemon's entries are resident graphs — the annotated SLIF, the
    processor+ASIC [Graph.t] built once at admission and the memoized
    all-software estimate report — so a query costs a lookup, not a
    rebuild; capacity bounds the resident set so a stream of distinct
    specs cannot grow the heap without limit.  The cache itself is
    generic in its values.  It is fully associative: any [capacity]
    distinct keys stay resident together, and eviction always drops the
    globally least recently used entry.

    One {!Slif_obs.Lockprof} lock guards the stamp table, so any number of
    worker domains may share a cache; the lock covers a hashtable probe
    (plus, on an insert into a full cache, an O(capacity) scan for the
    oldest stamp — capacity is single digits here, so no linked-list
    bookkeeping).  Hit and miss counts are mutated under the same lock,
    so they are exact however many domains use the cache.  Values are
    shared, not copied: a value found by several domains at once must be
    safe to read concurrently. *)

type 'a t

val create : name:string -> capacity:int -> 'a t
(** [create ~name ~capacity] — [name] labels the cache's profiled lock
    (the daemon's resident set is ["server.lru"]).  Raises
    [Invalid_argument] when [capacity < 1]. *)

val find : 'a t -> string -> 'a option
(** Refreshes the entry's recency on a hit; counts a hit or a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Inserts (or refreshes) the binding, evicting the least recently used
    entry when full. *)

val remove : 'a t -> string -> unit
(** Drops the binding if present; a no-op otherwise.  Counts neither a
    hit nor a miss. *)

val release : 'a t -> unit
(** Retires the cache's profiled lock ({!Slif_obs.Lockprof.release}):
    the owner calls it once no domain will use the cache again, so a
    process that runs daemon after daemon keeps one lock series per
    name. *)

type stats = {
  size : int;
  capacity : int;
  hits : int;
  misses : int;
  keys : string list;  (** most recently used first *)
}

val stats : 'a t -> stats
(** One consistent reading of the cache, taken under its lock. *)
