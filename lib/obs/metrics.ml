let hist_json (s : Histogram.summary) (q : Histogram.quantiles) =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("sum", Json.Float s.sum);
      ("min", Json.Float s.min);
      ("max", Json.Float s.max);
      ("mean", Json.Float s.mean);
      ("p50", Json.Float q.q_p50);
      ("p90", Json.Float q.q_p90);
      ("p99", Json.Float q.q_p99);
    ]

let to_json () =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) (Counter.snapshot ())) );
      ( "histograms",
        Json.Obj
          (List.map (fun (name, s, q) -> (name, hist_json s q)) (Histogram.snapshot_full ())) );
      ("dropped_span_events", Json.Int (Flight.dropped_total ()));
    ]

let write_file path = Json.write_file path (to_json ())

let write_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (name, v) ->
          Json.to_channel oc
            (Json.Obj
               [
                 ("type", Json.String "counter");
                 ("name", Json.String name);
                 ("value", Json.Int v);
               ]);
          output_char oc '\n')
        (Counter.snapshot ());
      List.iter
        (fun (name, (s : Histogram.summary), (q : Histogram.quantiles)) ->
          Json.to_channel oc
            (Json.Obj
               [
                 ("type", Json.String "histogram");
                 ("name", Json.String name);
                 ("count", Json.Int s.count);
                 ("sum", Json.Float s.sum);
                 ("min", Json.Float s.min);
                 ("max", Json.Float s.max);
                 ("mean", Json.Float s.mean);
                 ("p50", Json.Float q.q_p50);
                 ("p90", Json.Float q.q_p90);
                 ("p99", Json.Float q.q_p99);
               ]);
          output_char oc '\n')
        (Histogram.snapshot_full ()))

let summary_string () =
  let counters = Counter.snapshot () in
  let hists = Histogram.snapshot_full () in
  if counters = [] && hists = [] then ""
  else begin
    let buf = Buffer.create 512 in
    if counters <> [] then begin
      Buffer.add_string buf "counters:\n";
      let width =
        List.fold_left (fun acc (name, _) -> max acc (String.length name)) 0 counters
      in
      List.iter
        (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-*s %d\n" width name v))
        counters
    end;
    if hists <> [] then begin
      Buffer.add_string buf "histograms (count / mean / p50 / p99 / min / max):\n";
      let width =
        List.fold_left (fun acc (name, _, _) -> max acc (String.length name)) 0 hists
      in
      List.iter
        (fun (name, (s : Histogram.summary), (q : Histogram.quantiles)) ->
          Buffer.add_string buf
            (Printf.sprintf "  %-*s %d / %.3f / %.3f / %.3f / %.3f / %.3f\n" width name
               s.count s.mean q.q_p50 q.q_p99 s.min s.max))
        hists
    end;
    Buffer.contents buf
  end
