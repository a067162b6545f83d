let with_ name f =
  let fl = Flight.on () in
  let reg = Registry.on () in
  if not (fl || reg) then f ()
  else begin
    (* All mutation lands in the calling domain's cell and ring: the
       open-span id is per-domain, so spans opened inside pool workers
       never race.  The flight write happens whether or not the registry
       is armed — that is the always-on black box. *)
    let l = Registry.local () in
    let t0 = Clock.now_ns () in
    let parent = l.Registry.span in
    let id = Flight.next_id () in
    l.Registry.span <- id;
    let finish () =
      l.Registry.span <- parent;
      let dur = Int64.sub (Clock.now_ns ()) t0 in
      if fl then
        Flight.record_span
          ?trace:l.Registry.trace ~id ~parent ~name
          ~t0_ns:(Int64.to_int t0) ~dur_ns:(Int64.to_int dur) ();
      if reg then Histogram.observe ("span." ^ name) (Int64.to_float dur /. 1e3)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end
