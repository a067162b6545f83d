type map = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type identity = { id_dev : int; id_ino : int; id_size : int; id_mtime : float }

type t = {
  path : string;
  size : int;
  map : map;
  dir : int * Store.section_info list;
  meta : Store.meta;
  ident : identity;
  lock : Mutex.t;
  (* The decoded graph is held weakly: the caller (the daemon's LRU) owns
     the only strong reference, so evicting it actually releases the
     heap — a handle never pins a decode.  Decode *errors* are memoized
     strongly; they are small and a corrupt file stays corrupt. *)
  memo : (Slif.Types.t * Store.provenance) Weak.t;
  mutable memo_err : Store.error option;
}

(* Copy a byte range out of the mapping.  The copy is what the Codec
   readers need anyway (they consume strings), and it confines page
   faults to decode time — an un-forced handle touches only the header
   pages.  Subtraction-form bounds check: [pos + len] can wrap past
   max_int on a crafted directory entry, so never sum untrusted
   offsets; the reads stay bounds-checked too. *)
let fetch_map map size ~pos ~len =
  if pos < 0 || len < 0 || pos > size || len > size - pos then ""
  else String.init len (fun i -> Bigarray.Array1.get map (pos + i))

(* A corrupt directory can still drive the codec into [String.sub] /
   [String.init] with absurd arguments; keep the [result] contract by
   mapping those to a typed decode error instead of escaping. *)
let guarded f =
  match f () with
  | r -> r
  | exception Invalid_argument msg -> Error (Store.Decode msg)

let ( let* ) = Result.bind

let open_file path =
  match
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let st = Unix.fstat fd in
        let size = st.Unix.st_size in
        if size = 0 then Error Store.Bad_magic
        else begin
          (* The mapping outlives the descriptor; the kernel drops it when
             the bigarray is collected. *)
          let map =
            Bigarray.array1_of_genarray
              (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |])
          in
          let fetch = fetch_map map size in
          let* ((version, _) as dir) =
            guarded (fun () -> Store.directory ~total:size fetch)
          in
          let* () =
            if version = Store.format_version then Ok ()
            else Error (Store.Unsupported_version version)
          in
          let* meta = guarded (fun () -> Store.read_meta ~fetch dir) in
          let* () =
            match meta.Store.vm_kind with
            | Store.Kslif -> Ok ()
            | Store.Kdecision -> Error (Store.Decode "container holds a decision, not a SLIF")
          in
          Ok
            {
              path;
              size;
              map;
              dir;
              meta;
              ident =
                {
                  id_dev = st.Unix.st_dev;
                  id_ino = st.Unix.st_ino;
                  id_size = st.Unix.st_size;
                  id_mtime = st.Unix.st_mtime;
                };
              lock = Mutex.create ();
              memo = Weak.create 1;
              memo_err = None;
            }
        end)
  with
  | r -> r
  | exception Unix.Unix_error (e, _, _) -> Error (Store.Io (Unix.error_message e))
  | exception Sys_error msg -> Error (Store.Io msg)
  | exception Invalid_argument msg -> Error (Store.Decode msg)

let file_size t = t.size
let meta t = t.meta
let design t = t.meta.Store.vm_design
let decoded_bytes_estimate t = t.meta.Store.vm_decoded_bytes

(* [save_slif] replaces a store by renaming a fresh temporary over it, so
   a regenerated file is a different inode; size/mtime catch in-place
   rewrites.  An unlinked or unstattable path counts as stale — callers
   reopen and surface the error. *)
let stale t =
  match Unix.stat t.path with
  | exception Unix.Unix_error _ -> true
  | exception Sys_error _ -> true
  | st ->
      st.Unix.st_dev <> t.ident.id_dev
      || st.Unix.st_ino <> t.ident.id_ino
      || st.Unix.st_size <> t.ident.id_size
      || st.Unix.st_mtime <> t.ident.id_mtime

let decoded t =
  Mutex.lock t.lock;
  let d = Weak.check t.memo 0 || t.memo_err <> None in
  Mutex.unlock t.lock;
  d

let slif t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match t.memo_err with
      | Some e -> Error e
      | None -> (
          match Weak.get t.memo 0 with
          | Some v -> Ok v
          | None -> (
              match
                guarded (fun () ->
                    Store.decode_slif ~fetch:(fetch_map t.map t.size) t.dir)
              with
              | Ok v as r ->
                  Slif_obs.Counter.incr "store.lazy.full_decode";
                  Weak.set t.memo 0 (Some v);
                  r
              | Error e as r ->
                  t.memo_err <- Some e;
                  r)))
