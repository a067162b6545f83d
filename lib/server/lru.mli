(** The daemon's resident set: a small, domain-safe least-recently-used
    cache of annotated SLIFs.

    The daemon keeps hot graphs in memory keyed by their content hash
    ({!Slif_store.Cache.key}), so a query costs an annotation lookup, not
    a rebuild; capacity bounds the resident set so a stream of distinct
    specs cannot grow the heap without limit.  The cache is fully
    associative: any [capacity] distinct keys stay resident together, and
    eviction always drops the globally least recently used entry.

    One {!Slif_obs.Lockprof} lock guards the stamp table, so any number of
    worker domains may share a cache; the lock covers a hashtable probe
    (plus, on an insert into a full cache, an O(capacity) scan for the
    oldest stamp — capacity is single digits here, so no linked-list
    bookkeeping).  Hit and miss counts are mutated under the same lock,
    so they are exact however many domains use the cache. *)

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

type stats = {
  size : int;
  capacity : int;
  hits : int;
  misses : int;
  keys : string list;  (** most recently used first *)
}

val stats : 'a t -> stats
(** One consistent reading of the cache, taken under its lock. *)
