(* Differential test: the compiled interpreter (Flow.Interp) against the
   reference tree-walker (Interp_ref).  Both run the same designs under the
   same stimuli; every pass's outcome and step count, the recorded profile,
   the port outputs and the globals must agree exactly. *)

module Ast = Vhdl.Ast
module Prng = Slif_util.Prng

(* The operations a session needs, over either interpreter. *)
type 'm impl = {
  create : limits:int * int -> inputs:(string -> int) -> Vhdl.Sem.t -> 'm;
  run : 'm -> string -> unit;
  steps : 'm -> int;
  profile : 'm -> Flow.Profile.t;
  output : 'm -> string -> int option;
  global : 'm -> string -> string option;
}

let render_int_array a = String.concat "," (Array.to_list (Array.map string_of_int a))

let compiled =
  {
    create =
      (fun ~limits:(max_steps, max_while_iters) ~inputs sem ->
        Flow.Interp.create ~limits:{ Flow.Interp.max_steps; max_while_iters } ~inputs sem);
    run = Flow.Interp.run_process;
    steps = Flow.Interp.steps;
    profile = Flow.Interp.profile;
    output = Flow.Interp.port_output;
    global =
      (fun m n ->
        Option.map
          (function
            | Flow.Interp.Vint v -> Printf.sprintf "int %d" v
            | Flow.Interp.Vbool b -> Printf.sprintf "bool %b" b
            | Flow.Interp.Varr a -> "arr " ^ render_int_array a)
          (Flow.Interp.read_global m n));
  }

let reference =
  {
    create =
      (fun ~limits:(max_steps, max_while_iters) ~inputs sem ->
        Interp_ref.create ~limits:{ Interp_ref.max_steps; max_while_iters } ~inputs sem);
    run = Interp_ref.run_process;
    steps = Interp_ref.steps;
    profile = Interp_ref.profile;
    output = Interp_ref.port_output;
    global =
      (fun m n ->
        Option.map
          (function
            | Interp_ref.Vint v -> Printf.sprintf "int %d" v
            | Interp_ref.Vbool b -> Printf.sprintf "bool %b" b
            | Interp_ref.Varr a -> "arr " ^ render_int_array a)
          (Interp_ref.read_global m n));
  }

(* Exceptions private to an interpreter compare by constructor name. *)
let outcome f =
  match f () with
  | () -> "ok"
  | exception Flow.Interp.Limit_exceeded b -> "limit " ^ b
  | exception Interp_ref.Limit_exceeded b -> "limit " ^ b
  | exception Flow.Interp.Runtime_error msg -> "error " ^ msg
  | exception Interp_ref.Runtime_error msg -> "error " ^ msg
  | exception e ->
      (* "Flow__Interp.Exit_loop_exn" -> "Exit_loop_exn", arguments kept. *)
      let s = Printexc.to_string e in
      let name = List.hd (String.split_on_char '(' s) in
      let short = List.hd (List.rev (String.split_on_char '.' name)) in
      "raise " ^ short ^ String.sub s (String.length name) (String.length s - String.length name)

(* Names a run can observe: every declared variable or signal (a
   behavior-local signal lives with the globals) and every port. *)
let observable (design : Ast.design) =
  let decl_names =
    List.concat_map
      (List.filter_map (function
        | Ast.Var_decl { v_name = n; _ } | Ast.Sig_decl { s_name = n; _ } -> Some n
        | _ -> None))
      (design.Ast.arch_decls
      :: List.map (fun (_, decls, _) -> decls) (Ast.behaviors design))
  in
  (List.sort_uniq compare decl_names, List.map (fun p -> p.Ast.port_name) design.Ast.ports)

(* [runs] passes of every process under seeded port stimuli, as the
   automatic profiler drives them; returns the transcript and the profile. *)
let session impl ?(limits = (200_000, 10_000)) ?(runs = 10) ~seed sem =
  let design = Vhdl.Sem.design sem in
  let rng = Prng.create seed in
  let m = impl.create ~limits ~inputs:(fun _ -> Prng.int rng 256) sem in
  let b = Buffer.create 1024 in
  for pass = 1 to runs do
    List.iter
      (fun (p : Ast.process) ->
        let o = outcome (fun () -> impl.run m p.Ast.proc_name) in
        Printf.bprintf b "pass %d %s: %s, %d steps\n" pass p.Ast.proc_name o (impl.steps m))
      design.Ast.processes
  done;
  let vars, ports = observable design in
  List.iter
    (fun n ->
      Printf.bprintf b "global %s = %s\n" n (Option.value (impl.global m n) ~default:"-"))
    vars;
  List.iter
    (fun n ->
      Printf.bprintf b "port %s = %s\n" n
        (Option.fold ~none:"-" ~some:string_of_int (impl.output m n)))
    ports;
  let profile = impl.profile m in
  Printf.bprintf b "profile:\n%s" (Flow.Profile.to_string profile);
  (Buffer.contents b, profile)

let check_same ?limits ?runs ~seed label sem =
  let expected, _ = session reference ?limits ?runs ~seed sem in
  let actual, _ = session compiled ?limits ?runs ~seed sem in
  Alcotest.(check string) label expected actual

(* --- The bundled specifications -------------------------------------------- *)

(* The benchmark's spec-corpus profile seeds (perfbench/gen.ml). *)
let profile_seeds =
  let rng = Prng.derive ~root:20_251_017 1 in
  List.init 64 (fun _ -> 1 + Prng.int rng 1_000_000)

let annotated_bytes ~profile sem =
  let slif = Slif.Build.build ~profile sem in
  let slif = Slif.Annotate.run ~profile ~techs:Tech.Parts.all sem slif in
  Slif_store.Store.slif_to_string (Slif.Graph.slif (Slif.Graph.make slif))

let spec_sems =
  lazy
    (List.map
       (fun (s : Specs.Registry.spec) ->
         (s.spec_name, Vhdl.Sem.build (Vhdl.Parser.parse s.source)))
       Specs.Registry.all)

let test_specs () =
  List.iter
    (fun (name, sem) ->
      List.iter
        (fun seed ->
          let label = Printf.sprintf "%s seed %d" name seed in
          let expected, ref_profile = session reference ~seed sem in
          let actual, _ = session compiled ~seed sem in
          Alcotest.(check string) label expected actual;
          (* The library's own driver, end to end to store bytes. *)
          let profile = Flow.Profiler.auto ~seed sem in
          Alcotest.(check string) (label ^ ": auto profile")
            (Flow.Profile.to_string ref_profile) (Flow.Profile.to_string profile);
          Alcotest.(check bool) (label ^ ": annotated SLIF v2 bytes") true
            (annotated_bytes ~profile:ref_profile sem = annotated_bytes ~profile sem))
        profile_seeds)
    (Lazy.force spec_sems)

(* Budgets small enough that the step or while limit fires at many
   different points of the specifications' processes. *)
let test_specs_small_limits () =
  List.iter
    (fun (name, sem) ->
      List.iter
        (fun limits ->
          check_same ~limits ~runs:3 ~seed:7
            (Printf.sprintf "%s limits %d/%d" name (fst limits) (snd limits))
            sem)
        [ (1, 10); (2, 10); (3, 1); (7, 0); (19, 2); (50, 3); (137, 1); (400, 5); (2_000, 2) ])
    (Lazy.force spec_sems)

(* --- Fuzzed designs ------------------------------------------------------------- *)

let test_fuzz_designs () =
  for seed = 0 to 299 do
    let g = Test_fuzz.gen_design_of_seed seed in
    let sem = Vhdl.Sem.build g.Test_fuzz.design in
    List.iter
      (fun limits ->
        check_same ~limits ~runs:3 ~seed:(seed + 1)
          (Printf.sprintf "fuzz %d limits %d/%d" seed (fst limits) (snd limits))
          sem)
      [ (200_000, 10_000); (20_000, 100); (5 + (seed mod 40), 1 + (seed mod 3)) ]
  done

(* --- Edge cases ---------------------------------------------------------------- *)

let edge_source ?(decls = "") ?(subs = "") procs =
  Printf.sprintf
    {|entity e is
  port ( inp : in integer range 0 to 255; inq : in integer range 0 to 255;
         outp : out integer; outq : out integer );
end;
architecture a of e is
  shared variable x : integer;
  shared variable y : integer;
  shared variable flag : boolean;
  type buf is array (1 to 8) of integer range 0 to 255;
  shared variable arr : buf;
  constant k : integer := 3;
%s
%s
begin
%s
end;|}
    decls subs procs

(* Each edge case runs under several stimuli and budgets, so failures and
   limits land at different statements. *)
let edge ?decls ?subs label procs () =
  let sem = Vhdl.Sem.build (Vhdl.Parser.parse (edge_source ?decls ?subs procs)) in
  List.iter
    (fun seed ->
      List.iter
        (fun limits ->
          check_same ~limits ~runs:4 ~seed
            (Printf.sprintf "%s seed %d limits %d/%d" label seed (fst limits) (snd limits))
            sem)
        [ (200_000, 10_000); (40, 3); (9, 1); (2, 0) ])
    [ 1; 2; 3 ]

let test_unbound =
  edge "unbound"
    ~subs:
      {|  function double(v : in integer) return integer is
  begin
    return v * 2;
  end double;|}
    {|  p1: process begin x := 1; x := nosuch + 1; y := 2; end process;
  p2: process begin y := nofun(inp, 3); x := 5; end process;
  p3: process begin x := 6; noproc(1); y := 7; end process;
  p4: process begin k := inp; end process;
  p5: process begin x := double(1, 2); end process;
  p6: process begin x := double; end process;
  p7: process begin par noproc2; end par; end process;
  p8: process begin x := nosuch(inp); end process;
  p9: process begin nosuch := 1; end process;|}

let test_exit_escapes =
  edge "exit escapes a procedure"
    ~subs:
      {|  procedure bail is
  begin
    x := x + 1;
    if inp > 128 then exit; end if;
    y := y + 1;
  end bail;
  procedure setv(v : out integer) is
  begin
    v := 9;
    exit;
  end setv;
  function f(v : in integer) return integer is
  begin
    if v > 100 then exit; end if;
    return v + 1;
  end f;|}
    {|  p1: process begin for i in 1 to 5 loop bail; y := y + 10; end loop; x := x + 100; end process;
  p2: process begin y := 0; while y < 50 loop bail; end loop; end process;
  p3: process begin loop x := f(inp); y := f(inq); end loop; end process;
  p4: process begin for i in 1 to 2 loop setv(x); end loop; end process;
  p5: process begin exit; x := 99; end process;
  p6: process begin bail; end process;|}

let test_copy_out =
  edge "copy-out re-evaluates an index"
    ~subs:
      {|  procedure setv(v : out integer) is
  begin
    v := 7;
  end setv;
  procedure incv(v : inout integer) is
  begin
    v := v + inp;
  end incv;
  procedure both(a : in integer; b : inout integer; c : out integer) is
  begin
    c := a + b;
    b := b * 2;
  end both;|}
    {|  p1: process begin setv(arr(1 + inp mod 8)); incv(arr(1 + inq mod 8)); end process;
  p2: process begin setv(outp); incv(outq); setv(3); both(inp, x, y); both(x + 1, arr(1 + inp mod 8), arr(1 + inq mod 8)); end process;
  p3: process begin setv(arr(inp)); end process;
  p4: process begin setv(k); end process;
  p5: process variable v : integer; begin setv(v); incv(v); x := v; end process;|}

let test_operand_order =
  edge "operand order with port reads"
    ~subs:
      {|  function sub2(a : in integer; b : in integer) return integer is
  begin
    return a - b;
  end sub2;|}
    {|  p1: process begin
    flag := (inp > 100) xor (inq < 20);
    if flag xor (inp > 60) then y := 1; end if;
    x := inp - inq;
    flag := ((inp > 50) and (inq > 50)) or (inp < 20);
    y := sub2(inp, inq) + sub2(inq, inp);
    x := inp mod (inq - 128) + inp rem 7;
    outp <= abs (inp - inq) * (0 - 1);
    if not flag then x := -x; end if;
    wait until inp > 3;
  end process;|}

let test_for_variables =
  edge "for variables shadow and restore"
    ~subs:
      {|  procedure loopret(v : out integer) is
  begin
    for v in 1 to 5 loop
      if v = 3 then return; end if;
    end loop;
  end loopret;
  procedure loopexit(v : inout integer) is
  begin
    for v in 10 to 12 loop
      if v = 11 then exit; end if;
    end loop;
  end loopexit;|}
    {|  p1: process variable i : integer := 42; begin
    for i in 1 to 3 loop x := x + i; end loop;
    y := i;
    for x in 1 to 2 loop arr(x) := x; end loop;
    for j in 1 to 3 loop for j in 5 to 6 loop y := y + j; end loop; y := y + j; end loop;
    loopret(x); loopexit(y);
    for inp in 1 to 2 loop outp <= inp; end loop;
    x := inp;
  end process;
  p2: process begin for j in 1 to 4 loop x := j; end loop; y := j; end process;|}

let test_arrays_and_attributes =
  edge "arrays, attributes and aliasing"
    ~decls:"  shared variable other : buf;"
    {|  p1: process variable a, b : buf; begin
    x := arr'length; y := inp'length; x := x + nosuch'length; y := y + arr'high;
    a := b; a(1) := 5; x := b(1);
    other := a; a(2) := inp; y := other(2);
    arr(1 + inp mod 8) := arr(1 + inq mod 8) + 1;
  end process;
  p2: process begin x := arr(inp); end process;
  p3: process begin x := x(1); end process;
  p4: process begin x := arr + 1; end process;
  p5: process begin if arr then x := 1; end if; end process;
  p6: process begin x(1) := 2; end process;|}

let test_functions =
  edge "functions, recursion and zero-argument calls"
    ~subs:
      {|  function fact(n : in integer) return integer is
  begin
    if n <= 1 then return 1; end if;
    return n * fact(n - 1);
  end fact;
  function seven return integer is
  begin
    return 7;
  end seven;
  function noret(n : in integer) return integer is
  begin
    x := n;
  end noret;
  function loopy(n : in integer) return integer is
  begin
    if n > 300 then return n; end if;
    return loopy(n + 1);
  end loopy;
  procedure early is
  begin
    if inp > 10 then return; end if;
    y := 1;
  end early;|}
    {|  p1: process begin x := fact(inp mod 6); y := seven + seven; x := x + noret(4); early; end process;
  p2: process variable seven : integer := 1; begin x := seven; y := seven(1); end process;
  p3: process begin x := loopy(0); end process;
  p4: process begin par early; early; end par; x := fact(3); end process;|}

let test_messages_and_case =
  edge "messages, waits and case"
    {|  producer: process begin send(box, inp); send(box, inq); send(other, 5); end process;
  consumer: process variable v : integer; begin
    receive(box, v);
    receive(box, arr(1 + inp mod 8));
    receive(box, x);
    case v is
      when 1 | 2 | 3 => y := 1;
      when 4 => y := 2;
      when others => y := 3;
    end case;
    case inp mod 4 is
      when 0 => x := 1;
      when 1 | 2 => x := 2;
    end case;
    case inq is
      when k => x := 10;
      when 200 => x := 11;
      when others => null;
    end case;
    wait for 5 ns; wait on inp; wait;
  end process;|}

let test_arithmetic_errors =
  edge "division by zero and signs"
    {|  p1: process begin x := inp mod 3 - 1; y := 100 / x; end process;
  p2: process begin x := (0 - inp) mod 7; y := (0 - inp) rem 7; y := inp rem (inq mod 2); end process;
  p3: process begin x := inp mod (inq mod 3); end process;|}

let test_while_limits =
  edge "while loops and their limits"
    ~subs:
      {|  procedure spin(n : in integer) is
    variable c : integer;
  begin
    c := 0;
    while c < n loop
      c := c + 1;
      if c = 7 then return; end if;
    end loop;
  end spin;|}
    {|  p1: process begin x := 0; while x < inp loop x := x + 1; end loop; spin(inq mod 9); spin(2); end process;
  p2: process begin while true loop x := x + 1; if x > inp then exit; end if; end loop; end process;
  p3: process begin while flag loop null; end loop; flag := true; end process;|}

let test_local_signals =
  edge "behavior-local signals"
    {|  sigs: process signal s : integer; begin s <= inp; x := s; end process;
  reader: process signal s2 : integer; begin x := s2; s2 <= 1; end process;
  late: process begin x := s; end process;|}

(* Designs the parser does not produce. *)
let test_ast_only () =
  let var ?init name ty =
    Ast.Var_decl { v_name = name; v_type = ty; v_init = init; v_shared = false }
  in
  let proc name decls body = { Ast.proc_name = name; proc_decls = decls; proc_body = body } in
  let assign_x e = Ast.Assign (Ast.Tname "x", e) in
  let processes =
    [
      proc "unbound_array" [ var "w" Ast.Integer ]
        [ assign_x (Ast.Name "inp"); assign_x (Ast.Index ("z", Ast.Int_lit 1)) ];
      (* An unresolvable named type fails where it is first used. *)
      proc "undeclared_type" [ var "z" (Ast.Named "nosuch") ] [ assign_x (Ast.Name "inp") ];
      (* A repeated declaration keeps the later initializer. *)
      proc "repeated"
        [ var "d" Ast.Integer ~init:(Ast.Int_lit 1); var "d" Ast.Integer ~init:(Ast.Int_lit 2) ]
        [ assign_x (Ast.Name "d") ];
      (* A local initializer is an integer, whatever the declared type. *)
      proc "boolean_init"
        [ var "bv" Ast.Boolean ~init:(Ast.Bool_lit true) ]
        [ assign_x (Ast.Binop (Ast.Concat, Ast.Name "bv", Ast.Name "inp")) ];
    ]
  in
  let sem =
    Vhdl.Sem.build
      {
        Ast.entity_name = "e";
        ports = [ { Ast.port_name = "inp"; port_mode = Ast.In; port_type = Ast.Integer } ];
        arch_name = "a";
        arch_decls =
          [ Ast.Var_decl { v_name = "x"; v_type = Ast.Integer; v_init = None; v_shared = true } ];
        subprograms = [];
        processes;
      }
  in
  List.iter
    (fun limits -> check_same ~limits ~runs:3 ~seed:5 "AST-only designs" sem)
    [ (200_000, 10_000); (1, 0); (2, 0) ]

let suite =
  [
    Alcotest.test_case "bundled specs x 64 profile seeds" `Quick test_specs;
    Alcotest.test_case "bundled specs under small limits" `Quick test_specs_small_limits;
    Alcotest.test_case "fuzzed designs" `Quick test_fuzz_designs;
    Alcotest.test_case "unbound names and unknown calls" `Quick test_unbound;
    Alcotest.test_case "exit escapes a called procedure" `Quick test_exit_escapes;
    Alcotest.test_case "copy-out re-evaluates an index" `Quick test_copy_out;
    Alcotest.test_case "operand order with port reads" `Quick test_operand_order;
    Alcotest.test_case "for variables shadow and restore" `Quick test_for_variables;
    Alcotest.test_case "arrays, attributes and aliasing" `Quick test_arrays_and_attributes;
    Alcotest.test_case "functions and recursion" `Quick test_functions;
    Alcotest.test_case "messages, waits and case" `Quick test_messages_and_case;
    Alcotest.test_case "division by zero and signs" `Quick test_arithmetic_errors;
    Alcotest.test_case "while loops and limits" `Quick test_while_limits;
    Alcotest.test_case "behavior-local signals" `Quick test_local_signals;
    Alcotest.test_case "AST-only designs" `Quick test_ast_only;
  ]
