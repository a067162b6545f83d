(* The benchmark's own tests: its statistics helpers on known inputs, its
   span arithmetic, and the determinism of every workload generator — the
   same seed must give the same request stream, move stream and synthetic
   graph. *)

module Stats = Perfbench.Stats
module Gen = Perfbench.Gen
module Spans = Perfbench.Spans

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.check close "even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check close "single" 7.0 (Stats.median [| 7.0 |])

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "p50 nearest rank" 50.0 (Stats.percentile xs 50.0);
  Alcotest.check close "p90" 90.0 (Stats.percentile xs 90.0);
  Alcotest.check close "p99" 99.0 (Stats.percentile xs 99.0);
  Alcotest.check close "p100" 100.0 (Stats.percentile xs 100.0);
  Alcotest.check close "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.check close "few samples" 3.0 (Stats.percentile [| 1.0; 2.0; 3.0 |] 90.0)

(* Reference values from Python's statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let check name xs (e1, e2, e3) =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.check close (name ^ " q1") e1 q1;
    Alcotest.check close (name ^ " q2") e2 q2;
    Alcotest.check close (name ^ " q3") e3 q3
  in
  check "1..10" (Array.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "1..4" [| 4.0; 3.0; 2.0; 1.0 |] (1.25, 2.5, 3.75);
  check "two" [| 5.0; 1.0 |] (0.0, 3.0, 6.0);
  check "unsorted" [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6.; 5.; 3.; 5. |] (2.0, 4.0, 5.0)

let test_spread () =
  (* (8.25 - 2.75) / 5.5 *)
  Alcotest.check close "1..10" 1.0
    (Stats.spread (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "constant" 0.0 (Stats.spread [| 2.0; 2.0; 2.0; 2.0 |]);
  Alcotest.check_raises "one sample"
    (Invalid_argument "Stats.quartiles: need at least two samples") (fun () ->
      ignore (Stats.spread [| 1.0 |]))

let span ~id ~parent layer start_us stop_us =
  { Spans.id; parent; op = 1; layer; name = layer; start_us; stop_us; words = 0.0 }

let test_self_time () =
  let spans =
    [
      span ~id:1 ~parent:0 "bench" 0.0 100.0;
      span ~id:2 ~parent:1 "core" 10.0 50.0;
      span ~id:3 ~parent:2 "store" 20.0 30.0;
      span ~id:4 ~parent:1 "core" 60.0 90.0;
    ]
  in
  Alcotest.(check (list (pair string close)))
    "per layer"
    [ ("bench", 30.0); ("core", 60.0); ("store", 10.0) ]
    (Spans.layer_self_us spans)

let test_spans_nest () =
  Spans.enable ();
  Fun.protect ~finally:Spans.disable @@ fun () ->
  let v = Spans.op "op" (fun () -> Spans.call "core" "inner" (fun () -> 42)) in
  Alcotest.(check int) "value" 42 v;
  match List.rev (Spans.all ()) with
  | outer :: inner :: _ ->
      Alcotest.(check int) "parent" outer.id inner.parent;
      Alcotest.(check int) "same operation" outer.op inner.op;
      Alcotest.(check bool) "operation id set" true (outer.op > 0)
  | _ -> Alcotest.fail "expected two spans"

let test_call_words () =
  Spans.enable ();
  Fun.protect ~finally:Spans.disable @@ fun () ->
  let before = List.length (Spans.all ()) in
  let cells name () =
    Sys.opaque_identity (Spans.call "core" name (fun () -> List.init 1000 Fun.id))
  in
  Spans.op "pass" (fun () ->
      Spans.call "core" "empty" (fun () -> ());
      ignore (cells "alloc" ()));
  ignore (cells "outside" ());
  let spans = List.filteri (fun i _ -> i >= before) (Spans.all ()) in
  let words name = (List.find (fun (s : Spans.span) -> s.name = name) spans).words in
  Alcotest.check close "an empty call counts nothing of the recorder's" 0.0 (words "empty");
  Alcotest.(check bool) "a 1000-cell list counts its cells" true (words "alloc" >= 3000.0);
  let total, ops = Spans.op_call_words spans ~op_name:"pass" in
  Alcotest.(check int) "one operation" 1 ops;
  Alcotest.check close "only the operation's calls" (words "alloc") total

let take n f = List.init n (fun _ -> f ())

let test_request_stream () =
  let a = take 2000 (Gen.request_stream ~seed:5 ~specs:4) in
  let b = take 2000 (Gen.request_stream ~seed:5 ~specs:4) in
  let c = take 2000 (Gen.request_stream ~seed:6 ~specs:4) in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  Alcotest.(check bool) "other seed, other stream" false (a = c);
  let share cls =
    float_of_int (List.length (List.filter (fun r -> Gen.request_class r = cls) a)) /. 2000.0
  in
  let near cls want tol = Float.abs (share cls -. want) < tol in
  Alcotest.(check bool) "estimate share near 70%" true (near "estimate" 0.70 0.04);
  Alcotest.(check bool) "partition share near 15%" true (near "partition" 0.15 0.03);
  Alcotest.(check bool) "load share near 7%" true (near "load_fresh" 0.07 0.02);
  let salts =
    List.filter_map (function Gen.Load_fresh { salt; _ } -> Some salt | _ -> None) a
  in
  Alcotest.(check int) "fresh sources are fresh" (List.length salts)
    (List.length (List.sort_uniq compare salts))

let test_profile_order () =
  Alcotest.(check bool) "profile seed set is fixed" true
    (Gen.profile_seeds ~count:16 = Gen.profile_seeds ~count:16);
  let p = Gen.permutation ~seed:3 64 in
  Alcotest.(check (array int)) "a permutation" (Array.init 64 Fun.id)
    (let s = Array.copy p in
     Array.sort compare s;
     s);
  Alcotest.(check bool) "same seed, same order" true (p = Gen.permutation ~seed:3 64);
  Alcotest.(check bool) "other seed, other order" false (p = Gen.permutation ~seed:4 64)

let graph_bytes ~seed ~nodes =
  Slif_store.Store.slif_to_string ~version:2
    (Slif_synth.Synth.generate (Gen.synth_params ~seed ~nodes))

let test_synth_graph () =
  let a = graph_bytes ~seed:9 ~nodes:2000 in
  Alcotest.(check bool) "same seed, same graph" true (a = graph_bytes ~seed:9 ~nodes:2000);
  Alcotest.(check bool) "other seed, other graph" false (a = graph_bytes ~seed:10 ~nodes:2000)

let moves ~seed =
  let slif = Slif_synth.Synth.generate (Gen.synth_params ~seed:1 ~nodes:1000) in
  let engine =
    Specsyn.Engine.create (Slif.Graph.make slif) (Specsyn.Search.seed_partition slif)
  in
  let rng = Gen.chain_rng ~seed 0 in
  let cost = ref (Specsyn.Engine.cost engine) and temp = ref 1.0 in
  List.init 300 (fun _ ->
      let m = Specsyn.Engine.random_move engine rng in
      let accepted =
        match m with
        | Some m ->
            let c = Specsyn.Engine.propose engine m in
            let ok = Gen.accept rng ~temp:!temp ~cost:!cost c in
            if ok then begin
              Specsyn.Engine.commit engine;
              cost := c
            end
            else Specsyn.Engine.rollback engine;
            ok
        | None -> false
      in
      temp := !temp *. 0.99;
      (m, accepted))

let test_accept_rule () =
  let rng = Perfbench.Gen.chain_rng ~seed:1 0 in
  Alcotest.(check bool) "a better move is taken" true (Gen.accept rng ~temp:0.0 ~cost:2.0 1.0);
  Alcotest.(check bool) "an equal move is taken" true (Gen.accept rng ~temp:0.0 ~cost:2.0 2.0);
  Alcotest.(check bool) "cold: a worse move is not" false
    (Gen.accept rng ~temp:0.0 ~cost:1.0 2.0);
  let taken temp =
    List.init 2000 (fun _ -> Gen.accept rng ~temp ~cost:1.0 2.0)
    |> List.filter Fun.id |> List.length
  in
  (* exp(-1) = 0.37 of worse moves at temperature 1. *)
  Alcotest.(check bool) "warm: worse moves taken at exp(-delta/temp)" true
    (abs (taken 1.0 - 736) < 80)

let test_move_stream () =
  let a = moves ~seed:4 in
  Alcotest.(check bool) "same seed, same moves" true (a = moves ~seed:4);
  Alcotest.(check bool) "some moves accepted, some rejected" true
    (List.exists snd a && List.exists (fun (m, ok) -> m <> None && not ok) a);
  Alcotest.(check bool) "other seed, other moves" false (a = moves ~seed:5)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "spread" `Quick test_spread;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "nesting and operation ids" `Quick test_spans_nest;
          Alcotest.test_case "allocation inside calls" `Quick test_call_words;
        ] );
      ( "generators",
        [
          Alcotest.test_case "request stream" `Quick test_request_stream;
          Alcotest.test_case "profile seeds and order" `Quick test_profile_order;
          Alcotest.test_case "synthetic graph" `Quick test_synth_graph;
          Alcotest.test_case "move stream" `Quick test_move_stream;
          Alcotest.test_case "annealing acceptance" `Quick test_accept_rule;
        ] );
    ]
