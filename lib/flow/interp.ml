module Ast = Vhdl.Ast
module Sem = Vhdl.Sem
module Smap = Map.Make (String)

type value = Vint of int | Vbool of bool | Varr of int array

type limits = { max_steps : int; max_while_iters : int }

let default_limits = { max_steps = 200_000; max_while_iters = 10_000 }

exception Limit_exceeded of string
exception Runtime_error of string

exception Return_value of value option
exception Exit_loop_exn

let error fmt = Printf.ksprintf (fun msg -> raise (Runtime_error msg)) fmt

(* Per-site observation counters. *)
type branch_stat = { mutable visits : int; arms : int array }
type while_stat = { mutable entries : int; mutable iters : int }

(* A compiled behavior runs over a frame: one slot per name that is local
   to one call of it. *)
type frame = value array

type compiled = {
  slots : int;
  params : int array;  (* slot of each parameter, in declaration order *)
  init : frame -> unit;  (* declared variables *)
  body : frame -> unit;
}

type t = {
  sem : Sem.t;
  globals : (string, value ref) Hashtbl.t;
  mutable inputs : string -> int;
  outputs : (string, int) Hashtbl.t;
  queues : (string, int Queue.t) Hashtbl.t;
  limits : limits;
  mutable step_count : int;
  branch_stats : (string * int, branch_stat) Hashtbl.t;  (* behavior, site *)
  while_stats : (string * int, while_stat) Hashtbl.t;
  procs : (string, compiled Lazy.t) Hashtbl.t;
  subs : (string, compiled Lazy.t) Hashtbl.t;
}

(* --- Values and defaults -------------------------------------------------- *)

let rec default_value sem ty =
  match Sem.resolve sem ty with
  | Ast.Integer | Ast.Natural | Ast.Bit | Ast.Bit_vector _ -> Vint 0
  | Ast.Boolean -> Vbool false
  | Ast.Int_range (lo, hi) -> Vint (if lo <= 0 && 0 <= hi then 0 else lo)
  | Ast.Array_of { length; elem; _ } ->
      let e = match default_value sem elem with Vint v -> v | Vbool _ -> 0 | Varr _ -> 0 in
      Varr (Array.make length e)
  | Ast.Named _ -> assert false

let as_int = function
  | Vint v -> v
  | Vbool b -> if b then 1 else 0
  | Varr _ -> error "array used as a scalar"

let as_bool = function
  | Vbool b -> b
  | Vint v -> v <> 0
  | Varr _ -> error "array used as a condition"

let vtrue = Vbool true
let vfalse = Vbool false

(* Arrays index from their declared low bound. *)
let array_lo sem ty =
  match Sem.resolve sem ty with Ast.Array_of { lo; _ } -> lo | _ -> 0

(* --- Machine construction -------------------------------------------------- *)

let eval_const_expr e =
  (* Initializers in the subset are literals or simple arithmetic. *)
  let rec go = function
    | Ast.Int_lit n -> n
    | Ast.Bool_lit b -> if b then 1 else 0
    | Ast.Unop (Ast.Neg, a) -> -go a
    | Ast.Binop (Ast.Add, a, b) -> go a + go b
    | Ast.Binop (Ast.Sub, a, b) -> go a - go b
    | Ast.Binop (Ast.Mul, a, b) -> go a * go b
    | _ -> 0
  in
  go e

let create ?(limits = default_limits) ~inputs sem =
  let design = Sem.design sem in
  let globals = Hashtbl.create 64 in
  List.iter
    (fun d ->
      match d with
      | Ast.Var_decl { v_name; v_type; v_init; _ } ->
          let base = default_value sem v_type in
          let v =
            match (v_init, base) with
            | Some e, Vint _ -> Vint (eval_const_expr e)
            | Some e, Vbool _ -> Vbool (eval_const_expr e <> 0)
            | _ -> base
          in
          Hashtbl.replace globals v_name (ref v)
      | Ast.Sig_decl { s_name; s_type } ->
          Hashtbl.replace globals s_name (ref (default_value sem s_type))
      | Ast.Const_decl _ | Ast.Type_decl _ -> ())
    design.Ast.arch_decls;
  {
    sem;
    globals;
    inputs;
    outputs = Hashtbl.create 16;
    queues = Hashtbl.create 8;
    limits;
    step_count = 0;
    branch_stats = Hashtbl.create 32;
    while_stats = Hashtbl.create 8;
    procs = Hashtbl.create 8;
    subs = Hashtbl.create 8;
  }

let set_inputs t f = t.inputs <- f

(* --- Compilation ------------------------------------------------------------ *)

(* Each behavior compiles once per machine into closures over a frame.
   Every name resolves at compile time to what a tree walk would find on
   each access: a frame slot (parameters, declared variables, enclosing
   [for] variables), a global's cell, a folded constant, a port read or a
   callee.  Anything that can fail (an unbound name, an unresolvable type)
   compiles to code that fails when it runs, at the same point of the
   execution. *)

type ctx = {
  m : t;
  name : string;  (* behavior: error messages, step limit, recorder key *)
  env : Sem.env;
  mutable next_slot : int;
  (* Control sites are numbered in compilation order, which is {!Count}'s
     pre-order: an if/case or while before the statements inside it. *)
  mutable branch_sites : int;
  mutable while_sites : int;
}

let new_slot c =
  let i = c.next_slot in
  c.next_slot <- i + 1;
  i

(* [f ()] once, now; an exception it raises is raised by every use. *)
let staged f = match f () with v -> fun () -> v | exception e -> fun () -> raise e

(* A fresh default of [ty] on every call: arrays are mutable. *)
let default_of c ty =
  let d = staged (fun () -> default_value c.m.sem ty) in
  fun () -> match d () with Varr a -> Varr (Array.copy a) | v -> v

let type_of_name c n =
  match Sem.lookup c.env n with
  | Some (Sem.Local_var ty | Sem.Global_var ty | Sem.Port (_, ty) | Sem.Param (_, ty)
         | Sem.Constant (ty, _)) ->
      ty
  | _ -> Ast.Integer

let find_subprogram c n =
  match Sem.lookup (Sem.global_env c.m.sem) n with
  | Some (Sem.Subprogram sub) -> Some sub
  | _ -> None

let tick m name =
  m.step_count <- m.step_count + 1;
  if m.step_count > m.limits.max_steps then raise (Limit_exceeded name)

(* Each control site owns its stat; one never visited is not reported. *)
let branch_recorder c n_arms =
  let s = { visits = 0; arms = Array.make n_arms 0 } in
  Hashtbl.replace c.m.branch_stats (c.name, c.branch_sites) s;
  c.branch_sites <- c.branch_sites + 1;
  fun arm ->
    s.visits <- s.visits + 1;
    s.arms.(arm) <- s.arms.(arm) + 1

let while_recorder c =
  let s = { entries = 0; iters = 0 } in
  Hashtbl.replace c.m.while_stats (c.name, c.while_sites) s;
  c.while_sites <- c.while_sites + 1;
  fun iters ->
    s.entries <- s.entries + 1;
    s.iters <- s.iters + iters

let queue_for m ch =
  match Hashtbl.find_opt m.queues ch with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace m.queues ch q;
      q

let arith c op a b =
  let nonzero what g =
    let name = c.name in
    fun f ->
      let x = a f in
      let y = b f in
      if y = 0 then error "%s by zero in %s" what name else g x y
  in
  match op with
  | Ast.Add -> fun f -> let x = a f in let y = b f in x + y
  | Ast.Sub -> fun f -> let x = a f in let y = b f in x - y
  | Ast.Mul -> fun f -> let x = a f in let y = b f in x * y
  | Ast.Div -> nonzero "division" ( / )
  | Ast.Mod -> nonzero "mod" (fun x y -> ((x mod y) + y) mod y)
  | Ast.Rem -> nonzero "rem" ( mod )
  | Ast.Concat -> fun f -> let x = a f in let y = b f in (x * 2) + y
  | _ -> assert false

let relation op a b =
  match op with
  | Ast.Eq -> fun f -> let x = a f in let y = b f in x = y
  | Ast.Neq -> fun f -> let x = a f in let y = b f in x <> y
  | Ast.Lt -> fun f -> let x = a f in let y = b f in x < y
  | Ast.Le -> fun f -> let x = a f in let y = b f in x <= y
  | Ast.Gt -> fun f -> let x = a f in let y = b f in x > y
  | Ast.Ge -> fun f -> let x = a f in let y = b f in x >= y
  | _ -> assert false

let unbound c n =
  let name = c.name in
  fun _ -> error "unbound name %s in %s" n name

(* The value of [n] outside the frame; [missing] when nothing is bound. *)
let nonlocal c n ~missing =
  match Sem.lookup c.env n with
  | Some (Sem.Constant (_, e)) ->
      let v = Vint (eval_const_expr e) in
      fun _ -> v
  | Some (Sem.Port _) ->
      let m = c.m in
      fun _ -> Vint (m.inputs n)
  | Some (Sem.Global_var _) -> (
      let m = c.m in
      match Hashtbl.find_opt m.globals n with
      | Some r -> fun _ -> !r
      | None -> (
          fun f -> match Hashtbl.find_opt m.globals n with Some r -> !r | None -> missing f))
  | _ -> missing

let read c scope n ~missing =
  match Smap.find_opt n scope with Some i -> fun f -> f.(i) | None -> nonlocal c n ~missing

let write_name c scope n =
  match Smap.find_opt n scope with
  | Some i -> fun f v -> f.(i) <- v
  | None -> (
      let m = c.m and name = c.name in
      match Sem.lookup c.env n with
      | Some (Sem.Port _) -> fun _ v -> Hashtbl.replace m.outputs n (as_int v)
      | Some (Sem.Global_var _) -> (
          match Hashtbl.find_opt m.globals n with
          | Some r -> fun _ v -> r := v
          | None -> (
              fun _ v ->
                match Hashtbl.find_opt m.globals n with
                | Some r -> r := v
                | None -> Hashtbl.replace m.globals n (ref v)))
      | _ -> fun _ _ -> error "cannot assign to %s in %s" n name)

(* [n(ix)]: evaluates the index, then reads the array, checks the bounds
   and passes the array and the element's offset to [k] with [x]. *)
let element c scope n ix =
  let arr = read c scope n ~missing:(unbound c n) in
  let lo = staged (fun () -> array_lo c.m.sem (type_of_name c n)) and name = c.name in
  fun f x k ->
    let i = ix f in
    match arr f with
    | Varr a ->
        let j = i - lo () in
        if j < 0 || j >= Array.length a then
          error "%s(%d): index out of bounds in %s" n i name
        else k a j x
    | _ -> error "%s is not an array" n

(* A behavior's code, compiled on its first call. *)
let cached table name make =
  match Hashtbl.find_opt table name with
  | Some k -> k
  | None ->
      let k = lazy (make ()) in
      Hashtbl.replace table name k;
      k

let rec expr c scope e : frame -> value =
  match e with
  | Ast.Int_lit n ->
      let v = Vint n in
      fun _ -> v
  | Ast.Bool_lit b ->
      let v = Vbool b in
      fun _ -> v
  | Ast.Name n -> (
      (* A bare name can be a zero-argument function call. *)
      match (Smap.find_opt n scope, find_subprogram c n) with
      | None, Some sub -> call c scope sub []
      | _ -> read c scope n ~missing:(unbound c n))
  | Ast.Attr (n, attr) ->
      let r = read c scope n ~missing:(fun _ -> Vint 0) and length = attr = "length" in
      fun f -> (match r f with Varr a when length -> Vint (Array.length a) | _ -> Vint 0)
  | Ast.Index (n, ix) -> (
      match find_subprogram c n with
      | Some sub -> call c scope sub [ ix ]
      | None ->
          let get = element c scope n (int_ c scope ix) in
          fun f -> get f () (fun a j () -> Vint a.(j)))
  | Ast.Call (n, args) -> (
      match find_subprogram c n with
      | Some sub -> call c scope sub args
      | None -> fun _ -> error "unknown function %s" n)
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Rem | Ast.Concat), _, _)
  | Ast.Unop ((Ast.Neg | Ast.Abs), _) ->
      let k = int_ c scope e in
      fun f -> Vint (k f)
  | Ast.Binop _ | Ast.Unop (Ast.Not, _) ->
      let k = bool_ c scope e in
      fun f -> if k f then vtrue else vfalse

(* [e] as [as_int] of its value, without boxing intermediates. *)
and int_ c scope e : frame -> int =
  match e with
  | Ast.Int_lit n -> fun _ -> n
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Rem | Ast.Concat) as op, a, b)
    ->
      arith c op (int_ c scope a) (int_ c scope b)
  | Ast.Unop (Ast.Neg, a) ->
      let a = int_ c scope a in
      fun f -> -a f
  | Ast.Unop (Ast.Abs, a) ->
      let a = int_ c scope a in
      fun f -> abs (a f)
  | _ ->
      let v = expr c scope e in
      fun f -> as_int (v f)

(* [e] as [as_bool] of its value. *)
and bool_ c scope e : frame -> bool =
  match e with
  | Ast.Bool_lit b -> fun _ -> b
  | Ast.Binop ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, a, b) ->
      relation op (int_ c scope a) (int_ c scope b)
  | Ast.Binop (Ast.And, a, b) ->
      let a = bool_ c scope a and b = bool_ c scope b in
      fun f -> a f && b f
  | Ast.Binop (Ast.Or, a, b) ->
      let a = bool_ c scope a and b = bool_ c scope b in
      fun f -> a f || b f
  | Ast.Binop (Ast.Xor, a, b) ->
      (* Right operand first, as in the reference interpreter: with port
         reads in both operands the order decides which stimulus each draws. *)
      let a = bool_ c scope a and b = bool_ c scope b in
      fun f ->
        let y = b f in
        a f <> y
  | Ast.Unop (Ast.Not, a) ->
      let a = bool_ c scope a in
      fun f -> not (a f)
  | _ ->
      let v = expr c scope e in
      fun f -> as_bool (v f)

and write c scope = function
  | Ast.Tname n -> write_name c scope n
  | Ast.Tindex (n, ix) ->
      let set = element c scope n (int_ c scope ix) in
      fun f v -> set f v (fun a j v -> a.(j) <- as_int v)

and call c scope (sub : Ast.subprogram) args : frame -> value =
  let name = sub.Ast.sub_name and n_params = List.length sub.Ast.sub_params in
  if List.length args <> n_params then fun _ ->
    error "%s expects %d arguments" name n_params
  else
    let callee = subprogram c.m sub in
    let copy_in =
      Array.of_list
        (List.map2
           (fun (p : Ast.param) arg ->
             match p.par_mode with
             | Ast.In | Ast.Inout -> expr c scope arg
             | Ast.Out ->
                 let d = default_of c p.par_type in
                 fun _ -> d ())
           sub.Ast.sub_params args)
    in
    (* Copy-out to lvalue arguments; an index is evaluated again. *)
    let copy_out =
      List.combine sub.Ast.sub_params args
      |> List.mapi (fun j ((p : Ast.param), arg) ->
             match (p.par_mode, arg) with
             | Ast.In, _ -> None
             | _, Ast.Name n -> Some (j, write_name c scope n)
             | _, Ast.Index (n, ix) -> Some (j, write c scope (Ast.Tindex (n, ix)))
             | _ -> None)
      |> List.filter_map Fun.id |> Array.of_list
    in
    fun f ->
      let k = Lazy.force callee in
      let g = Array.make k.slots (Vint 0) in
      for j = 0 to Array.length copy_in - 1 do
        g.(k.params.(j)) <- copy_in.(j) f
      done;
      k.init g;
      let result = try k.body g; None with Return_value v -> v in
      for o = 0 to Array.length copy_out - 1 do
        let j, w = copy_out.(o) in
        w f g.(k.params.(j))
      done;
      match result with Some v -> v | None -> Vint 0

and block c scope body : frame -> unit =
  let code = Array.of_list (List.map (stmt c scope) body) in
  let m = c.m and name = c.name in
  match code with
  | [||] -> fun _ -> ()
  | [| s |] ->
      fun f ->
        tick m name;
        s f
  | _ ->
      fun f ->
        for i = 0 to Array.length code - 1 do
          tick m name;
          code.(i) f
        done

and stmt c scope s : frame -> unit =
  match s with
  | Ast.Assign (target, e) | Ast.Signal_assign (target, e) ->
      let e = expr c scope e and w = write c scope target in
      fun f ->
        let v = e f in
        w f v
  | Ast.If (arms, els) ->
      let record = branch_recorder c (List.length arms + 1) in
      let arms =
        Array.of_list
          (List.map (fun (cond, body) -> (bool_ c scope cond, block c scope body)) arms)
      in
      let n = Array.length arms in
      let els = block c scope els in
      let rec from k f =
        if k = n then begin
          record n;
          els f
        end
        else
          let cond, body = arms.(k) in
          if cond f then begin
            record k;
            body f
          end
          else from (k + 1) f
      in
      from 0
  | Ast.Case (subject, alts) ->
      let record = branch_recorder c (List.length alts) in
      let subject = int_ c scope subject in
      let alts =
        Array.of_list
          (List.map
             (fun (choices, body) ->
               ( List.map
                   (function Ast.Ch_others -> None | Ast.Ch_expr e -> Some (int_ c scope e))
                   choices,
                 block c scope body ))
             alts)
      in
      let rec matches f v = function
        | [] -> false
        | None :: _ -> true
        | Some e :: rest -> e f = v || matches f v rest
      in
      let rec from f v k =
        if k < Array.length alts then
          let choices, body = alts.(k) in
          if matches f v choices then begin
            record k;
            body f
          end
          else from f v (k + 1)
      in
      fun f -> from f (subject f) 0
  | Ast.For (v, lo, hi, body) ->
      (* A name already local gets its value back after the loop; a new
         one goes out of scope. *)
      let i, scope =
        match Smap.find_opt v scope with
        | Some i -> (i, scope)
        | None ->
            let i = new_slot c in
            (i, Smap.add v i scope)
      in
      let body = block c scope body in
      fun f ->
        let saved = f.(i) in
        (try
           for x = lo to hi do
             f.(i) <- Vint x;
             body f
           done
         with Exit_loop_exn -> ());
        f.(i) <- saved
  | Ast.While (cond, body) ->
      let record = while_recorder c in
      let cond = bool_ c scope cond and body = block c scope body in
      let max_iters = c.m.limits.max_while_iters and name = c.name in
      fun f ->
        let iters = ref 0 in
        (try
           while cond f do
             incr iters;
             if !iters > max_iters then raise (Limit_exceeded name);
             body f
           done
         with Exit_loop_exn -> ());
        record !iters
  | Ast.Loop_forever body -> (
      (* One start-to-finish pass, consistent with the static analysis. *)
      let body = block c scope body in
      fun f -> try body f with Exit_loop_exn -> ())
  | Ast.Pcall (n, args) -> procedure c scope n args
  | Ast.Par calls ->
      let calls = List.map (fun (n, args) -> procedure c scope n args) calls in
      fun f -> List.iter (fun k -> k f) calls
  | Ast.Send (ch, e) ->
      let q = queue_for c.m ch and e = int_ c scope e in
      fun f -> Queue.push (e f) q
  | Ast.Receive (ch, target) ->
      let q = queue_for c.m ch and w = write c scope target in
      fun f -> w f (Vint (if Queue.is_empty q then 0 else Queue.pop q))
  | Ast.Wait_for _ | Ast.Wait_on _ | Ast.Null_stmt -> fun _ -> ()
  | Ast.Wait_until e ->
      let e = expr c scope e in
      fun f -> ignore (e f)
  | Ast.Return None -> fun _ -> raise (Return_value None)
  | Ast.Return (Some e) ->
      let e = expr c scope e in
      fun f -> raise (Return_value (Some (e f)))
  | Ast.Exit_loop -> fun _ -> raise Exit_loop_exn

and procedure c scope n args =
  match find_subprogram c n with
  | Some sub ->
      let k = call c scope sub args in
      fun f -> ignore (k f)
  | None -> fun _ -> error "unknown procedure %s" n

(* Parameters, then declared variables, take slots in declaration order;
   a repeated name keeps its first slot and takes the later value. *)
and compile m ~name ~params ~decls body =
  let c =
    {
      m;
      name;
      env = Sem.env_of_behavior m.sem name;
      next_slot = 0;
      branch_sites = 0;
      while_sites = 0;
    }
  in
  let scope = ref Smap.empty in
  let slot n =
    match Smap.find_opt n !scope with
    | Some i -> i
    | None ->
        let i = new_slot c in
        scope := Smap.add n i !scope;
        i
  in
  let params = Array.of_list (List.map slot params) in
  let inits =
    List.filter_map
      (function
        | Ast.Var_decl { v_name; v_type; v_init; _ } ->
            let i = slot v_name in
            let v = Option.map (fun e -> Vint (eval_const_expr e)) v_init in
            Some (i, match v with Some v -> Fun.const v | None -> default_of c v_type)
        | _ -> None)
      decls
  in
  let body = block c !scope body in
  let init f = List.iter (fun (i, v) -> f.(i) <- v ()) inits in
  { slots = c.next_slot; params; init; body }

and subprogram m (sub : Ast.subprogram) =
  cached m.subs sub.Ast.sub_name (fun () ->
      compile m ~name:sub.Ast.sub_name
        ~params:(List.map (fun (p : Ast.param) -> p.par_name) sub.Ast.sub_params)
        ~decls:sub.Ast.sub_decls sub.Ast.sub_body)

(* --- Entry points ------------------------------------------------------------ *)

let run_process t name =
  (* The step budget is per pass. *)
  t.step_count <- 0;
  let design = Sem.design t.sem in
  let proc =
    match List.find_opt (fun p -> p.Ast.proc_name = name) design.Ast.processes with
    | Some p -> p
    | None -> raise Not_found
  in
  let k =
    Lazy.force
      (cached t.procs name (fun () ->
           compile t ~name ~params:[] ~decls:proc.Ast.proc_decls proc.Ast.proc_body))
  in
  let frame = Array.make k.slots (Vint 0) in
  k.init frame;
  try k.body frame with Return_value _ -> ()

let run_all_processes t =
  let design = Sem.design t.sem in
  List.iter (fun (p : Ast.process) -> run_process t p.Ast.proc_name) design.Ast.processes

let port_output t name = Hashtbl.find_opt t.outputs name

let read_global t name = Option.map ( ! ) (Hashtbl.find_opt t.globals name)

let profile t =
  let p = ref Profile.empty in
  Hashtbl.iter
    (fun (behavior, site) (stat : branch_stat) ->
      if stat.visits > 0 then
        Array.iteri
          (fun arm count ->
            p :=
              Profile.set_branch !p ~behavior ~site ~arm
                (float_of_int count /. float_of_int stat.visits))
          stat.arms)
    t.branch_stats;
  Hashtbl.iter
    (fun (behavior, site) (stat : while_stat) ->
      if stat.entries > 0 then
        p :=
          Profile.set_while !p ~behavior ~site
            ~trips:(float_of_int stat.iters /. float_of_int stat.entries))
    t.while_stats;
  !p

let steps t = t.step_count
