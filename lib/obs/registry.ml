type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;  (* log-spaced; geometry lives in Histogram *)
}

(* Counter cells are padded out to [cell_words] machine words (two 64-byte
   cache lines including the array header) with the live value in slot 0.
   Each cell is written by exactly one domain — its owner — but cells from
   different domains end up adjacent in the major heap once promoted, and
   an unpadded cell would then share a cache line with a neighbour that
   another domain hammers.  The padding buys true share-nothing counting:
   a domain bumping its hot cell never invalidates another domain's line. *)
let cell_words = 15

let new_cell () : int array = Array.make cell_words 0

type local = {
  dom : int;
  counters : (string, int array) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  mutable trace : string option;
  mutable span : int;  (* innermost open span id (Flight); 0 = none *)
}

(* The master switch is the only cell every probe reads; an [Atomic] load
   keeps the disabled-mode cost at one load and branch while staying
   race-free under domains. *)
let enabled = Atomic.make false

(* One [local] per domain that ever probed, handed out through
   domain-local storage so the hot paths never lock.  The cells are also
   kept on a global list (guarded by [locals_mu]) so exporters can merge
   them; a cell outlives its domain, preserving the data of joined pool
   workers.  [reset] zeroes the cells in place rather than dropping them —
   a live domain keeps writing into its registered cell. *)
let locals_mu = Mutex.create ()
let locals : local list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let l =
        {
          dom = (Domain.self () :> int);
          counters = Hashtbl.create 64;
          hists = Hashtbl.create 64;
          trace = None;
          span = 0;
        }
      in
      Mutex.lock locals_mu;
      locals := l :: !locals;
      Mutex.unlock locals_mu;
      l)

let local () = Domain.DLS.get key

let fold_locals f acc =
  Mutex.lock locals_mu;
  let ls = !locals in
  Mutex.unlock locals_mu;
  (* Ascending domain id: a deterministic merge order for exporters. *)
  List.fold_left f acc (List.sort (fun a b -> compare a.dom b.dom) ls)

let on () = Atomic.get enabled

let enable () = Atomic.set enabled true

let disable () = Atomic.set enabled false

let reset () =
  fold_locals
    (fun () l ->
      (* Counter cells are zeroed in place, not dropped: hot-path probes
         (Counter.cell) cache a cell across resets, and a dropped cell
         would silently swallow their writes after the next profiled run
         re-arms the registry. *)
      Hashtbl.iter (fun _ c -> Array.fill c 0 cell_words 0) l.counters;
      Hashtbl.reset l.hists;
      l.span <- 0)
    ()

(* The ambient request identity of the calling domain.  Deliberately
   independent of [on ()]: the event log tags lines with the trace id
   even when span/counter recording is off. *)
let current_trace () = (local ()).trace

(* The causality context: the innermost open span id, minted by the
   flight recorder.  Like the trace id it is independent of [on ()] —
   the always-on flight path is exactly the consumer that needs it when
   the registry is off. *)
let current_span () = (local ()).span

let with_causality ?trace ?parent f =
  let l = local () in
  let saved_trace = l.trace and saved_span = l.span in
  (match trace with Some _ -> l.trace <- trace | None -> ());
  (match parent with Some p -> l.span <- p | None -> ());
  Fun.protect
    ~finally:(fun () ->
      l.trace <- saved_trace;
      l.span <- saved_span)
    f

let with_trace id f = with_causality ~trace:id f
