(* Interpreter and dynamic profiler. *)

let machine ?limits ?(inputs = fun _ -> 0) src =
  let sem = Vhdl.Sem.build (Vhdl.Parser.parse src) in
  (sem, Flow.Interp.create ?limits ~inputs sem)

let wrap ?(decls = "") ?(subs = "") stmts =
  Printf.sprintf
    {|entity e is
  port ( inp : in integer range 0 to 255; outp : out integer );
end;
architecture a of e is
  shared variable x : integer;
  shared variable y : integer;
  type buf is array (1 to 8) of integer range 0 to 255;
  shared variable arr : buf;
%s
%s
begin
  main: process
  begin
%s
  end process;
end;|}
    decls subs stmts

let run ?limits ?inputs ?decls ?subs stmts =
  let _, m = machine ?limits ?inputs (wrap ?decls ?subs stmts) in
  Flow.Interp.run_process m "main";
  m

let check_global m name expected =
  match Flow.Interp.read_global m name with
  | Some (Flow.Interp.Vint v) -> Alcotest.(check int) name expected v
  | Some (Flow.Interp.Vbool b) -> Alcotest.(check int) name expected (if b then 1 else 0)
  | _ -> Alcotest.fail ("missing global " ^ name)

let test_arithmetic () =
  let m = run "x := 2 + 3 * 4; y := (2 + 3) * 4;" in
  check_global m "x" 14;
  check_global m "y" 20;
  let m = run "x := 17 mod 5; y := -17 mod 5;" in
  check_global m "x" 2;
  (* VHDL mod follows the divisor's sign; ours is non-negative for a
     positive divisor. *)
  check_global m "y" 3;
  let m = run "x := abs (3 - 10); y := 17 / 5;" in
  check_global m "x" 7;
  check_global m "y" 3

let test_branches () =
  let m = run "if inp = 0 then x := 1; else x := 2; end if;" in
  check_global m "x" 1;
  let m = run ~inputs:(fun _ -> 7) "if inp = 0 then x := 1; elsif inp = 7 then x := 5; end if;" in
  check_global m "x" 5;
  let m =
    run ~inputs:(fun _ -> 2)
      "case inp is when 1 => x := 10; when 2 | 3 => x := 20; when others => x := 30; end case;"
  in
  check_global m "x" 20

let test_loops () =
  let m = run "x := 0; for i in 1 to 10 loop x := x + i; end loop;" in
  check_global m "x" 55;
  let m = run "x := 0; y := 10; while y > 0 loop x := x + 2; y := y - 1; end loop;" in
  check_global m "x" 20;
  let m = run "x := 0; for i in 1 to 10 loop if i = 4 then exit; end if; x := x + 1; end loop;" in
  check_global m "x" 3

let test_arrays () =
  let m = run "for i in 1 to 8 loop arr(i) := i * 2; end loop; x := arr(5);" in
  check_global m "x" 10;
  match run "x := arr(99);" with
  | exception Flow.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "out-of-bounds accepted"

let test_functions_and_procedures () =
  let subs =
    {|
  function double(v : in integer) return integer is
  begin
    return v * 2;
  end double;
  procedure bump(amount : in integer; result : out integer) is
  begin
    result := amount + 1;
  end bump;
|}
  in
  let m = run ~subs "x := double(21); bump(5, y);" in
  check_global m "x" 42;
  check_global m "y" 6

let test_recursion_through_functions () =
  (* Functions calling functions (non-recursive nesting). *)
  let subs =
    {|
  function inc(v : in integer) return integer is
  begin
    return v + 1;
  end inc;
  function inc2(v : in integer) return integer is
  begin
    return inc(inc(v));
  end inc2;
|}
  in
  let m = run ~subs "x := inc2(40);" in
  check_global m "x" 42

let test_ports () =
  let m = run ~inputs:(fun _ -> 123) "x := inp; outp <= x + 1;" in
  check_global m "x" 123;
  Alcotest.(check (option int)) "output port" (Some 124) (Flow.Interp.port_output m "outp")

let test_messages () =
  let src =
    {|entity e is end;
architecture a of e is
  shared variable got : integer;
begin
  producer: process
  begin
    send(box, 41);
    send(box, 42);
  end process;
  consumer: process
    variable v : integer;
  begin
    receive(box, v);
    receive(box, v);
    got := v;
    receive(box, v);
    got := got + v;
  end process;
end;|}
  in
  let sem = Vhdl.Sem.build (Vhdl.Parser.parse src) in
  let m = Flow.Interp.create ~inputs:(fun _ -> 0) sem in
  Flow.Interp.run_all_processes m;
  (* Second receive got 42; third finds the queue empty -> 0. *)
  check_global m "got" 42

let test_initializers () =
  let m = run ~decls:"  shared variable z : integer := 7;" "x := z;" in
  check_global m "x" 7

let test_step_limit () =
  match
    run ~limits:{ Flow.Interp.max_steps = 50; max_while_iters = 1000 }
      "x := 1; while x > 0 loop x := x + 1; end loop;"
  with
  | exception Flow.Interp.Limit_exceeded _ -> ()
  | _ -> Alcotest.fail "runaway loop not stopped"

let test_division_by_zero () =
  match run "x := 0; y := 4 / x;" with
  | exception Flow.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "division by zero accepted"

(* --- Profiling ------------------------------------------------------------- *)

let test_profile_branch_counts () =
  (* inp alternates 0,1,0,1,... over runs; the if splits 50/50. *)
  let sem = Vhdl.Sem.build (Vhdl.Parser.parse (wrap "if inp = 0 then x := 1; else x := 2; end if;")) in
  let counter = ref 0 in
  let m = Flow.Interp.create ~inputs:(fun _ -> !counter mod 2) sem in
  for i = 0 to 9 do
    counter := i;
    Flow.Interp.run_process m "main"
  done;
  let p = Flow.Interp.profile m in
  Alcotest.(check (float 1e-9)) "then-arm at 0.5" 0.5
    (Flow.Profile.branch_prob p ~behavior:"main" ~site:0 ~arm:0 ~arms:2);
  Alcotest.(check (float 1e-9)) "else-arm at 0.5" 0.5
    (Flow.Profile.branch_prob p ~behavior:"main" ~site:0 ~arm:1 ~arms:2)

let test_profile_while_trips () =
  let src = wrap "y := inp; while y > 0 loop y := y - 1; end loop;" in
  let sem = Vhdl.Sem.build (Vhdl.Parser.parse src) in
  let m = Flow.Interp.create ~inputs:(fun _ -> 6) sem in
  Flow.Interp.run_process m "main";
  let p = Flow.Interp.profile m in
  Alcotest.(check (float 1e-9)) "6 trips observed" 6.0
    (Flow.Profile.while_trips p ~behavior:"main" ~site:0)

let test_profile_site_numbering_matches_count () =
  (* Two ifs in sequence: the profiler's sites must line up with Count's
     numbering, so feeding the measured profile into Count reproduces the
     observed frequencies. *)
  let stmts =
    "if inp = 0 then x := 1; end if; if inp > 100 then y := arr(2); end if;"
  in
  let src = wrap stmts in
  let design = Vhdl.Parser.parse src in
  let sem = Vhdl.Sem.build design in
  let m = Flow.Interp.create ~inputs:(fun _ -> 200) sem in
  Flow.Interp.run_process m "main";
  let p = Flow.Interp.profile m in
  (* With inp = 200: first if never taken, second always taken. *)
  let body =
    match design.Vhdl.Ast.processes with [ pr ] -> pr.Vhdl.Ast.proc_body | _ -> assert false
  in
  let events = Flow.Count.events ~profile:p ~behavior:"main" body in
  let freq access =
    List.fold_left
      (fun acc (e : Flow.Count.event) ->
        if e.access = access then acc +. e.mult.Flow.Count.avg else acc)
      0.0 events
  in
  Alcotest.(check (float 1e-9)) "first if body never runs" 0.0
    (freq (Flow.Count.Write "x"));
  Alcotest.(check (float 1e-9)) "second if body always runs" 1.0
    (freq (Flow.Count.Read "arr"))

let test_auto_profiler_on_benchmarks () =
  (* The push-button profiler must terminate on all four specs and return
     a profile that the builder accepts. *)
  List.iter
    (fun (spec : Specs.Registry.spec) ->
      let sem = Vhdl.Sem.build (Vhdl.Parser.parse spec.source) in
      let profile = Flow.Profiler.auto ~runs:2 ~seed:3 sem in
      let slif = Slif.Build.build ~profile sem in
      Alcotest.(check bool) (spec.spec_name ^ " builds with measured profile") true
        (Array.length slif.Slif.Types.chans > 0))
    Specs.Registry.all

(* [flow.interp_steps] sums every pass of every process, not just the last. *)
let test_auto_profiler_counts_steps () =
  let steps ?limits src =
    Slif_obs.Registry.reset ();
    Slif_obs.Registry.enable ();
    Fun.protect
      ~finally:(fun () ->
        Slif_obs.Registry.disable ();
        Slif_obs.Registry.reset ())
      (fun () ->
        ignore (Flow.Profiler.auto ~runs:3 ?limits (Vhdl.Sem.build (Vhdl.Parser.parse src)));
        Slif_obs.Counter.get "flow.interp_steps")
  in
  let two_processes =
    {|entity e is end;
architecture a of e is
  shared variable x : integer;
begin
  p: process begin x := 1; x := 2; end process;
  q: process begin for i in 1 to 4 loop x := i; end loop; end process;
end;|}
  in
  (* p runs 2 statements a pass, q runs 1 + 4. *)
  Alcotest.(check int) "3 passes of both processes" (3 * (2 + 5)) (steps two_processes);
  (* A pass cut by the step budget counts the statements it ran. *)
  Alcotest.(check int) "budget-cut passes" (3 * 50)
    (steps ~limits:{ Flow.Interp.max_steps = 50; max_while_iters = 1000 }
       (wrap "x := 1; while x > 0 loop x := x + 1; end loop;"))

(* --- Workload prediction vs real execution --------------------------------- *)

let test_workload_matches_execution_exactly () =
  (* With a profile measured from a deterministic run, the statement-count
     prediction must equal the interpreter's step count exactly. *)
  let src =
    {|entity e is
  port ( inp : in integer range 0 to 255 );
end;
architecture a of e is
  shared variable x : integer;
  shared variable y : integer;
  shared variable w : integer;
  function f(v : in integer) return integer is
  begin
    return v + 1;
  end f;
  procedure helper is
  begin
    w := w + 1;
    y := w * 2;
  end helper;
begin
  main: process
  begin
    x := 1;
    for i in 1 to 5 loop
      helper;
    end loop;
    if inp = 0 then
      y := f(3);
    end if;
  end process;
end;|}
  in
  let sem = Vhdl.Sem.build (Vhdl.Parser.parse src) in
  let m = Flow.Interp.create ~inputs:(fun _ -> 0) sem in
  Flow.Interp.run_process m "main";
  let measured = Flow.Interp.steps m in
  let profile = Flow.Interp.profile m in
  let predicted = Flow.Workload.expected_statements ~profile sem ~behavior:"main" in
  Alcotest.(check (float 1e-9)) "prediction equals execution"
    (float_of_int measured) predicted

let test_workload_matches_fuzzy () =
  (* Same property on the real controller: exact up to floating error. *)
  let spec = Specs.Registry.find_exn "fuzzy" in
  let sem = Vhdl.Sem.build (Vhdl.Parser.parse spec.source) in
  let m =
    Flow.Interp.create
      ~limits:{ Flow.Interp.max_steps = 5_000_000; max_while_iters = 10_000 }
      ~inputs:(fun name -> if name = "in1" then 80 else if name = "in2" then 30 else 0)
      sem
  in
  Flow.Interp.run_process m "fuzzymain";
  let measured = float_of_int (Flow.Interp.steps m) in
  let profile = Flow.Interp.profile m in
  let predicted = Flow.Workload.expected_statements ~profile sem ~behavior:"fuzzymain" in
  Alcotest.(check bool)
    (Printf.sprintf "within 0.1%% (measured %.0f, predicted %.1f)" measured predicted)
    true
    (abs_float (predicted -. measured) /. measured < 0.001)

let test_workload_static_defaults_differ () =
  (* Without profiling, uniform defaults give a different (biased) answer
     — the reason the paper wants measured branch probabilities. *)
  let spec = Specs.Registry.find_exn "fuzzy" in
  let sem = Vhdl.Sem.build (Vhdl.Parser.parse spec.source) in
  let static_ =
    Flow.Workload.expected_statements ~profile:Flow.Profile.empty sem ~behavior:"fuzzymain"
  in
  let m =
    Flow.Interp.create
      ~limits:{ Flow.Interp.max_steps = 5_000_000; max_while_iters = 10_000 }
      ~inputs:(fun _ -> 0) sem
  in
  Flow.Interp.run_process m "fuzzymain";
  let measured = float_of_int (Flow.Interp.steps m) in
  Alcotest.(check bool) "defaults deviate from this run" true
    (abs_float (static_ -. measured) /. measured > 0.01)

let test_workload_rejects_unknown () =
  let sem = Vhdl.Sem.build (Vhdl.Parser.parse Helpers.tiny_source) in
  match
    Flow.Workload.expected_statements ~profile:Flow.Profile.empty sem ~behavior:"ghost"
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown behavior accepted"

let test_fuzzy_executes () =
  (* End-to-end: the fuzzy controller actually computes an output. *)
  let spec = Specs.Registry.find_exn "fuzzy" in
  let sem = Vhdl.Sem.build (Vhdl.Parser.parse spec.source) in
  let m =
    Flow.Interp.create
      ~limits:{ Flow.Interp.max_steps = 2_000_000; max_while_iters = 10_000 }
      ~inputs:(fun name -> if name = "in1" then 100 else if name = "in2" then 50 else 0)
      sem
  in
  Flow.Interp.run_process m "fuzzymain";
  match Flow.Interp.port_output m "out1" with
  | Some v -> Alcotest.(check bool) "output in range" true (v >= 0 && v <= 255)
  | None -> Alcotest.fail "fuzzymain produced no output"

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "branches" `Quick test_branches;
    Alcotest.test_case "loops and exit" `Quick test_loops;
    Alcotest.test_case "arrays and bounds" `Quick test_arrays;
    Alcotest.test_case "functions and out-params" `Quick test_functions_and_procedures;
    Alcotest.test_case "nested function calls" `Quick test_recursion_through_functions;
    Alcotest.test_case "ports" `Quick test_ports;
    Alcotest.test_case "message queues" `Quick test_messages;
    Alcotest.test_case "initializers" `Quick test_initializers;
    Alcotest.test_case "step limit" `Quick test_step_limit;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "profile branch counts" `Quick test_profile_branch_counts;
    Alcotest.test_case "profile while trips" `Quick test_profile_while_trips;
    Alcotest.test_case "profiler/Count site agreement" `Quick test_profile_site_numbering_matches_count;
    Alcotest.test_case "auto profiler on all specs" `Slow test_auto_profiler_on_benchmarks;
    Alcotest.test_case "auto profiler counts every pass's steps" `Quick
      test_auto_profiler_counts_steps;
    Alcotest.test_case "fuzzy controller executes" `Quick test_fuzzy_executes;
    Alcotest.test_case "workload prediction exact on fixture" `Quick
      test_workload_matches_execution_exactly;
    Alcotest.test_case "workload prediction exact on fuzzy" `Quick test_workload_matches_fuzzy;
    Alcotest.test_case "static defaults deviate" `Quick test_workload_static_defaults_differ;
    Alcotest.test_case "workload rejects unknown behaviors" `Quick test_workload_rejects_unknown;
  ]
