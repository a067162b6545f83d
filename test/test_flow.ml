let body_of src =
  match (Vhdl.Parser.parse src).Vhdl.Ast.processes with
  | [ p ] -> p.Vhdl.Ast.proc_body
  | _ -> Alcotest.fail "expected one process"

let wrap stmts =
  body_of
    (Printf.sprintf
       {|entity e is end;
architecture a of e is
  shared variable x : integer;
  shared variable y : integer;
  shared variable z : integer;
begin
  main: process
  begin
%s
  end process;
end;|}
       stmts)

let events ?(profile = Flow.Profile.empty) stmts =
  Flow.Count.events ~profile ~behavior:"main" (wrap stmts)

let freq_of access evs =
  List.fold_left
    (fun acc (e : Flow.Count.event) ->
      if e.access = access then acc +. e.mult.Flow.Count.avg else acc)
    0.0 evs

let min_of access evs =
  List.fold_left
    (fun acc (e : Flow.Count.event) ->
      if e.access = access then acc +. e.mult.Flow.Count.mn else acc)
    0.0 evs

let max_of access evs =
  List.fold_left
    (fun acc (e : Flow.Count.event) ->
      if e.access = access then acc +. e.mult.Flow.Count.mx else acc)
    0.0 evs

let checkf = Alcotest.(check (float 1e-9))

(* --- Profile files ------------------------------------------------------- *)

let test_profile_roundtrip () =
  let p =
    Flow.Profile.set_while
      (Flow.Profile.set_branch Flow.Profile.empty ~behavior:"b" ~site:0 ~arm:1 0.25)
      ~behavior:"b" ~site:2 ~trips:12.5
  in
  let p' = Flow.Profile.of_string (Flow.Profile.to_string p) in
  checkf "branch prob survives" 0.25
    (Flow.Profile.branch_prob p' ~behavior:"b" ~site:0 ~arm:1 ~arms:2);
  checkf "while trips survive" 12.5 (Flow.Profile.while_trips p' ~behavior:"b" ~site:2)

let test_profile_defaults () =
  let p = Flow.Profile.empty in
  checkf "uniform over arms" 0.5
    (Flow.Profile.branch_prob p ~behavior:"b" ~site:0 ~arm:0 ~arms:2);
  checkf "uniform over 4 arms" 0.25
    (Flow.Profile.branch_prob p ~behavior:"b" ~site:0 ~arm:3 ~arms:4);
  checkf "default while trips" Flow.Profile.default_while_trips
    (Flow.Profile.while_trips p ~behavior:"b" ~site:9)

let test_profile_parse_comments () =
  let p = Flow.Profile.of_string "# comment\nmain.branch0.arm0 0.9 # tail\n\nmain.while1 3\n" in
  checkf "branch" 0.9 (Flow.Profile.branch_prob p ~behavior:"main" ~site:0 ~arm:0 ~arms:2);
  checkf "while" 3.0 (Flow.Profile.while_trips p ~behavior:"main" ~site:1)

let test_profile_parse_errors () =
  (match Flow.Profile.of_string "main.branch0.arm0 notanumber" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "bad number accepted");
  (match Flow.Profile.of_string "justakey 1.0" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "bad key accepted");
  match Flow.Profile.set_branch Flow.Profile.empty ~behavior:"b" ~site:0 ~arm:0 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "probability out of range accepted"

(* --- Counting ------------------------------------------------------------- *)

let test_straight_line () =
  let evs = events "x := y + 1;" in
  checkf "read y once" 1.0 (freq_of (Flow.Count.Read "y") evs);
  checkf "write x once" 1.0 (freq_of (Flow.Count.Write "x") evs);
  checkf "min equals avg in straight line" 1.0 (min_of (Flow.Count.Write "x") evs)

let test_for_loop_multiplier () =
  let evs = events "for i in 1 to 10 loop x := y; end loop;" in
  checkf "read y 10x" 10.0 (freq_of (Flow.Count.Read "y") evs);
  checkf "min is also 10" 10.0 (min_of (Flow.Count.Read "y") evs);
  checkf "max is also 10" 10.0 (max_of (Flow.Count.Read "y") evs)

let test_nested_loops_multiply () =
  let evs = events "for i in 1 to 4 loop for j in 1 to 5 loop x := y; end loop; end loop;" in
  checkf "4*5 reads" 20.0 (freq_of (Flow.Count.Read "y") evs)

let test_loop_index_not_an_access () =
  let evs = events "for i in 1 to 3 loop x := i; end loop;" in
  checkf "no read of i" 0.0 (freq_of (Flow.Count.Read "i") evs)

let test_if_probability_default () =
  (* if/else: two arms, uniform default 1/2 each. *)
  let evs = events "if z > 0 then x := y; else x := 1; end if;" in
  checkf "then-arm read at 0.5" 0.5 (freq_of (Flow.Count.Read "y") evs);
  checkf "conditional min is 0" 0.0 (min_of (Flow.Count.Read "y") evs);
  checkf "conditional max is 1" 1.0 (max_of (Flow.Count.Read "y") evs);
  (* Condition read always executes. *)
  checkf "condition read z" 1.0 (freq_of (Flow.Count.Read "z") evs)

let test_if_probability_profiled () =
  let profile = Flow.Profile.set_branch Flow.Profile.empty ~behavior:"main" ~site:0 ~arm:0 0.9 in
  let evs = events ~profile "if z > 0 then x := y; end if;" in
  checkf "then-arm read at 0.9" 0.9 (freq_of (Flow.Count.Read "y") evs)

let test_while_defaults () =
  let evs = events "while z > 0 loop x := y; end loop;" in
  checkf "body at default trips" Flow.Profile.default_while_trips
    (freq_of (Flow.Count.Read "y") evs);
  checkf "while body min is 0" 0.0 (min_of (Flow.Count.Read "y") evs);
  checkf "while body max is 2x trips" (2.0 *. Flow.Profile.default_while_trips)
    (max_of (Flow.Count.Read "y") evs)

let test_while_profiled () =
  let profile = Flow.Profile.set_while Flow.Profile.empty ~behavior:"main" ~site:0 ~trips:100.0 in
  let evs = events ~profile "while z > 0 loop x := y; end loop;" in
  checkf "body at 100 trips" 100.0 (freq_of (Flow.Count.Read "y") evs)

let test_forever_loop_single_pass () =
  let evs = events "loop x := y; end loop;" in
  checkf "one pass" 1.0 (freq_of (Flow.Count.Read "y") evs)

let test_calls_counted () =
  let evs = events "for i in 1 to 7 loop helper; end loop;" in
  checkf "helper called 7x" 7.0 (freq_of (Flow.Count.Call "helper") evs)

let test_par_groups () =
  let evs = events "par a; b; end par; par c; end par;" in
  let group_of name =
    List.find_map
      (fun (e : Flow.Count.event) ->
        if e.access = Flow.Count.Call name then Some e.par_group else None)
      evs
  in
  (match (group_of "a", group_of "b", group_of "c") with
  | Some (Some ga), Some (Some gb), Some (Some gc) ->
      Alcotest.(check bool) "a and b share a group" true (ga = gb);
      Alcotest.(check bool) "c in a different group" true (gc <> ga)
  | _ -> Alcotest.fail "missing par groups");
  let seq_call = events "d;" in
  match seq_call with
  | [ { par_group = None; _ } ] -> ()
  | _ -> Alcotest.fail "sequential call has no par group"

let test_messages () =
  let evs = events "send(mbox, x); receive(mbox, y);" in
  checkf "one send" 1.0 (freq_of (Flow.Count.Message_out "mbox") evs);
  checkf "one receive" 1.0 (freq_of (Flow.Count.Message_in "mbox") evs);
  checkf "receive writes target" 1.0 (freq_of (Flow.Count.Write "y") evs)

let test_case_alternatives () =
  let evs =
    events "case z is when 1 => x := y; when 2 => x := 1; when others => null; end case;"
  in
  (* Three alternatives, uniform default 1/3. *)
  checkf "alternative body at 1/3" (1.0 /. 3.0) (freq_of (Flow.Count.Read "y") evs);
  checkf "subject read once" 1.0 (freq_of (Flow.Count.Read "z") evs)

let test_elsif_chain_reach () =
  (* Three-arm chain (if/elsif + implicit else): arm probabilities default
     to 1/3; the second condition is only reached when the first failed. *)
  let evs = events "if z = 1 then x := 1; elsif y = 1 then x := 2; end if;" in
  checkf "first condition always read" 1.0 (freq_of (Flow.Count.Read "z") evs);
  checkf "second condition read at reach probability" (2.0 /. 3.0)
    (freq_of (Flow.Count.Read "y") evs)

let test_fold_stmts_multipliers () =
  let body = wrap "for i in 1 to 6 loop x := 1; end loop; y := 2;" in
  let assigns =
    Flow.Count.fold_stmts ~profile:Flow.Profile.empty ~behavior:"main" body ~init:[]
      ~f:(fun acc mult s ->
        match s with Vhdl.Ast.Assign _ -> mult.Flow.Count.avg :: acc | _ -> acc)
  in
  Alcotest.(check (list (float 1e-9))) "multipliers" [ 1.0; 6.0 ] assigns

let test_fold_exprs_condition_scaling () =
  let body = wrap "while z > 0 loop x := 1; end loop;" in
  let cond_mults =
    Flow.Count.fold_exprs ~profile:Flow.Profile.empty ~behavior:"main" body ~init:[]
      ~f:(fun acc mult e ->
        match e with Vhdl.Ast.Binop (Vhdl.Ast.Gt, _, _) -> mult.Flow.Count.avg :: acc | _ -> acc)
  in
  Alcotest.(check (list (float 1e-9))) "condition scaled by trips"
    [ Flow.Profile.default_while_trips ] cond_mults

(* --- Control-site numbering (Sites must mirror Count) --------------------- *)

let test_sites_numbering () =
  let body =
    wrap
      {|if x > 0 then
  if y > 0 then
    z := 1;
  end if;
end if;
while x > 0 loop
  x := x - 1;
end loop;
case z is
  when 1 => x := 1;
  when others => null;
end case;|}
  in
  let sites = Sites.of_body body in
  (* Pre-order: outer if = branch 0, nested if = branch 1, case = branch 2;
     the while is while-site 0. *)
  Alcotest.(check (option int)) "outer if" (Some 0) (Sites.branch_site sites [ 0 ]);
  Alcotest.(check (option int)) "nested if in arm 0" (Some 1)
    (Sites.branch_site sites [ 0; 0; 0 ]);
  Alcotest.(check (option int)) "case" (Some 2) (Sites.branch_site sites [ 2 ]);
  Alcotest.(check (option int)) "while" (Some 0) (Sites.while_site sites [ 1 ]);
  Alcotest.(check (option int)) "plain stmt has no site" None
    (Sites.branch_site sites [ 3 ])

let test_sites_loop_bodies_descend () =
  let body = wrap "for i in 1 to 3 loop if x > 0 then x := 1; end if; end loop;" in
  let sites = Sites.of_body body in
  (* The if lives at: statement 0 (for), body-list 0, statement 0. *)
  Alcotest.(check (option int)) "if inside for" (Some 0)
    (Sites.branch_site sites [ 0; 0; 0 ])

let suite =
  [
    Alcotest.test_case "profile round-trips" `Quick test_profile_roundtrip;
    Alcotest.test_case "profile defaults" `Quick test_profile_defaults;
    Alcotest.test_case "profile comments" `Quick test_profile_parse_comments;
    Alcotest.test_case "profile rejects malformed input" `Quick test_profile_parse_errors;
    Alcotest.test_case "straight-line counts" `Quick test_straight_line;
    Alcotest.test_case "for-loop multiplier" `Quick test_for_loop_multiplier;
    Alcotest.test_case "nested loops multiply" `Quick test_nested_loops_multiply;
    Alcotest.test_case "loop index is not an access" `Quick test_loop_index_not_an_access;
    Alcotest.test_case "if default probability" `Quick test_if_probability_default;
    Alcotest.test_case "if profiled probability" `Quick test_if_probability_profiled;
    Alcotest.test_case "while defaults" `Quick test_while_defaults;
    Alcotest.test_case "while profiled" `Quick test_while_profiled;
    Alcotest.test_case "forever loop is one pass" `Quick test_forever_loop_single_pass;
    Alcotest.test_case "calls counted" `Quick test_calls_counted;
    Alcotest.test_case "par groups" `Quick test_par_groups;
    Alcotest.test_case "messages" `Quick test_messages;
    Alcotest.test_case "case alternatives" `Quick test_case_alternatives;
    Alcotest.test_case "elsif reach probabilities" `Quick test_elsif_chain_reach;
    Alcotest.test_case "fold_stmts multipliers" `Quick test_fold_stmts_multipliers;
    Alcotest.test_case "fold_exprs condition scaling" `Quick test_fold_exprs_condition_scaling;
    Alcotest.test_case "control-site numbering" `Quick test_sites_numbering;
    Alcotest.test_case "sites inside loop bodies" `Quick test_sites_loop_bodies_descend;
  ]
