(** Content-addressed cache of annotated SLIF store files.

    The cache key is the MD5 of (source text, profile text, technology
    fingerprint, entry schema): any input that changes the annotation
    result changes the key, so entries never go stale silently — a new
    input simply misses.  The entry schema changes only when entries an
    older binary wrote can no longer be read, so keys outlive format
    changes that keep old entries readable (v1 entries still load;
    every new entry is written as v2).  Entries live as [<dir>/<key>.slifstore]
    containers written by {!Store.save_slif}; a corrupt or mismatched
    entry is rebuilt and overwritten, never trusted.

    Counters (when {!Slif_obs} records): [store.cache_hit],
    [store.cache_miss], [store.cache_invalid] (present but unreadable or
    failing provenance validation — counted as a rebuild). *)

val tech_fingerprint : unit -> string
(** Identifies the {!Tech.Parts} catalog baked into this binary (names
    plus the cache-entry schema).  Annotation weights are pure
    functions of (source, profile, catalog), so this is the third key
    component. *)

val key : source:string -> ?profile:string -> unit -> string
(** Hex MD5 content key.  [profile] is the branch-probability file text
    (omit for the static defaults — a distinct key from any real
    profile). *)

val entry_path : dir:string -> key:string -> string
(** [<dir>/<key>.slifstore]. *)

val load_or_build :
  dir:string ->
  source:string ->
  ?profile:string ->
  build:(unit -> Slif.Types.t) ->
  unit ->
  Slif.Types.t * [ `Hit | `Miss | `Rebuilt ]
(** The load-or-build step: return the cached annotated SLIF when a
    valid entry exists, otherwise run [build], persist the result and
    return it.  Creates [dir] (and parents) on first use.  Raises
    [Store.Store_error (Io _)] when the directory cannot be created, read or
    written — the caller turns that into a one-line diagnostic. *)
