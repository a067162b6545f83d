(** The persistent SLIF container (DESIGN.md §11).

    A store file is the durable form of the paper's one-time
    preprocessing step: the fully annotated access graph — nodes with
    their per-technology [ict]/[size] weight lists, channels with
    [accfreq]/[bits]/concurrency tags, the component and bus tables —
    serialized so a later process evaluates design metrics without
    re-parsing or re-annotating anything.  The same container also
    carries recorded partition decisions ([slif partition --save]).

    Layout (v2, the only format written): an 8-byte magic, a 4-byte
    little-endian format version, then a CRC-guarded section
    {e directory} — [u32 count], [count] entries of [tag(4) | u64
    payload offset | u64 payload length | u32 payload CRC-32], a [u32]
    CRC of the directory bytes — followed by the payloads.  Payloads use
    {!Codec}.  The directory makes a container lazily decodable: a
    reader (or an [Unix.map_file] mapping, see {!Lazy_store}) can verify
    the directory alone, answer metadata queries from META (object
    counts and a decoded-heap estimate), and decode individual sections
    on demand, checking each payload CRC only when that payload is read.
    NODE weights reference an interned TECH string table instead of
    repeating technology names per node.

    Legacy v1 containers are read, never written: the same 12-byte
    prelude, then sections back-to-back as [tag(4) | u32 payload length
    | u32 payload CRC-32 | payload]; META stops after the tool name and
    NODE weights name their technology inline.  The eager decoders
    ({!slif_of_string}, {!decision_of_string}, {!inspect}) turn either
    framing into the same section table; {!Lazy_store} serves v2 only.

    Decoding is total: any byte sequence either decodes or yields a typed
    {!error} — never an exception escaping this module's [_of_string]
    functions, never a crash. *)

type error =
  | Io of string  (** file could not be read/written (carries the OS message) *)
  | Bad_magic  (** the file does not start with {!magic} *)
  | Unsupported_version of int
      (** written by a newer format revision, or a legacy one the reader
          cannot serve (v1 into {!Lazy_store}) *)
  | Truncated of string  (** input ended inside the named structure *)
  | Checksum_mismatch of string  (** the named section's CRC-32 does not match *)
  | Decode of string  (** structurally invalid payload *)

val error_message : error -> string
(** One-line human-readable rendering (what the CLI prints). *)

exception Store_error of error
(** Raised only by the [save_*] functions (on I/O failure); the read
    path returns [result]s. *)

val magic : string
(** ["SLIFSTOR"], 8 bytes. *)

val format_version : int
(** The format every writer produces (2).  Readers accept it and legacy
    v1, and reject newer versions with {!Unsupported_version} rather
    than misdecode. *)

(** Where an annotated SLIF came from — enough to decide whether a cached
    store file still matches its inputs. *)
type provenance = {
  pv_source_md5 : string;  (** MD5 hex digest of the specification text; [""] unknown *)
  pv_profile : string option;  (** the branch-probability file text, verbatim *)
  pv_tech : string;  (** technology-catalog fingerprint ({!Cache.tech_fingerprint}) *)
}

val no_provenance : provenance

(** {2 Annotated SLIF bundles} *)

val slif_to_string : ?version:int -> ?provenance:provenance -> Slif.Types.t -> string
(** [version], if given, must be {!format_version}; anything else raises
    [Invalid_argument]. *)

val slif_of_string : string -> (Slif.Types.t * provenance, error) result
(** Exact inverse of {!slif_to_string} (and decodes legacy v1 too):
    every float comes back with the identical bit pattern, so estimates
    computed from the loaded SLIF equal the originals to the bit. *)

val save_slif :
  path:string -> ?version:int -> ?provenance:provenance -> Slif.Types.t -> unit
(** Write-then-rename, so a concurrent reader never sees a half-written
    file.  Raises [Error (Io _)]. *)

val load_slif : path:string -> (Slif.Types.t * provenance, error) result

(** {2 Recorded partition decisions} *)

val decision_to_string : ?note:string -> Slif.Partition.t -> string
(** Assignments are recorded by object {e name} (like the legacy text
    format), so a decision survives node renumbering as long as names are
    stable. *)

val decision_of_string :
  Slif.Types.t -> string -> (Slif.Partition.t * string option, error) result
(** Replays the recorded assignments onto a partition of the given SLIF;
    the note travels back too.  Unknown names, a design-name mismatch or
    a SLIF-kind container yield [Decode]. *)

val save_decision : path:string -> ?note:string -> Slif.Partition.t -> unit

(** {2 Inspection (the [slif store info] subcommand)} *)

type kind = Kslif | Kdecision

(** One entry of a container's section table, whichever framing. *)
type section_info = {
  sec_tag : string;
  sec_offset : int;  (** byte offset of the payload within the container *)
  sec_size : int;  (** payload bytes *)
  sec_crc : int32;  (** payload CRC-32, as recorded in the container *)
}

type info = {
  si_version : int;
  si_kind : kind;
  si_design : string;
  si_sections : section_info list;  (** file order *)
  si_provenance : provenance option;
}

val inspect : string -> (info, error) result
(** Checks magic and version, validates the container's integrity
    metadata (the v2 directory checksum; every v1 section checksum), and
    decodes the metadata — without rebuilding the graph. *)

val read_file : string -> (string, error) result
(** Slurp a file, mapping I/O failures to [Io]. *)

(** {2 Internals shared with {!Lazy_store}} *)

type meta = {
  vm_kind : kind;
  vm_design : string;
  vm_nodes : int;  (** object counts: zero in a v1 container *)
  vm_ports : int;
  vm_chans : int;
  vm_procs : int;
  vm_mems : int;
  vm_buses : int;
  vm_decoded_bytes : int;
      (** write-time estimate of the decoded [Types.t]'s heap bytes — the
          number admission control compares against [--max-graph-mb] *)
}

val graph_bytes_estimate : meta -> int
(** Estimated heap bytes of the {!Slif.Compact} arrays a [Graph.t] over
    the decoded graph adds on top of [vm_decoded_bytes]; read from META
    alone, so admission control can count the graph before decoding. *)

val directory :
  total:int -> (pos:int -> len:int -> string) -> (int * section_info list, error) result
(** The container's format version and section table, read through a
    byte-range fetch callback ([String.sub] over a loaded container, or
    a copy out of an [Unix.map_file] mapping).  v2: the CRC-verified
    directory, every entry bounds-checked against [total].  v1: the
    walked section headers, every payload CRC checked. *)

val section :
  fetch:(pos:int -> len:int -> string) -> section_info list -> string -> (string, error) result
(** Fetch one section's payload and verify its CRC — the per-section
    lazy integrity check. *)

val read_meta :
  fetch:(pos:int -> len:int -> string) -> int * section_info list -> (meta, error) result

val decode_slif :
  fetch:(pos:int -> len:int -> string) ->
  int * section_info list ->
  (Slif.Types.t * provenance, error) result
(** Full decode out of a section table (the eager path and
    {!Lazy_store}'s on-demand path share this). *)
