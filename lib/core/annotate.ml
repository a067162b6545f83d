module Ast = Vhdl.Ast
module Sem = Vhdl.Sem

let local_storage_bits sem bname =
  let design = Sem.design sem in
  let decls =
    let proc = List.find_opt (fun p -> p.Ast.proc_name = bname) design.Ast.processes in
    let sub = List.find_opt (fun s -> s.Ast.sub_name = bname) design.Ast.subprograms in
    match (proc, sub) with
    | Some p, _ -> p.Ast.proc_decls
    | None, Some s -> s.Ast.sub_decls
    | None, None -> []
  in
  List.fold_left
    (fun acc d ->
      match d with
      | Ast.Var_decl { v_type; _ } -> acc + Sem.storage_bits sem v_type
      | Ast.Sig_decl _ | Ast.Const_decl _ | Ast.Type_decl _ -> acc)
    0 decls

let behavior_body sem bname =
  let design = Sem.design sem in
  match List.find_opt (fun p -> p.Ast.proc_name = bname) design.Ast.processes with
  | Some p -> Some p.Ast.proc_body
  | None -> (
      match List.find_opt (fun s -> s.Ast.sub_name = bname) design.Ast.subprograms with
      | Some s -> Some s.Ast.sub_body
      | None -> None)

let behavior_weights ~profile ~techs sem bname =
  match behavior_body sem bname with
  | None -> ([], [])
  | Some body ->
      let env = Sem.env_of_behavior sem bname in
      let is_local name =
        match Sem.lookup env name with
        | Some (Sem.Local_var _ | Sem.Param _ | Sem.Constant _) -> true
        | Some (Sem.Global_var _ | Sem.Port _ | Sem.Subprogram _) -> false
        | None -> true (* unknown names (e.g. loop indices) stay internal *)
      in
      let is_sub name = Sem.is_function_name sem name in
      let census = Tech.Census.of_behavior ~profile ~is_local ~is_sub ~name:bname body in
      let local_bits = local_storage_bits sem bname in
      List.fold_left
        (fun (icts, sizes) tech ->
          match tech with
          | Tech.Parts.Proc p ->
              let code = Tech.Proc_model.behavior_size_bytes p census in
              let data =
                Tech.Proc_model.variable_size_bytes p ~storage_bits:(max 1 local_bits)
              in
              ( (p.Tech.Proc_model.name, Tech.Proc_model.behavior_ict_us p census) :: icts,
                (p.Tech.Proc_model.name, code +. data) :: sizes )
          | Tech.Parts.Asic a ->
              ( (a.Tech.Asic_model.name, Tech.Asic_model.behavior_ict_us a census) :: icts,
                (a.Tech.Asic_model.name, Tech.Asic_model.behavior_size_gates a census ~local_bits)
                :: sizes )
          | Tech.Parts.Mem _ -> (icts, sizes))
        ([], []) techs

let variable_weights ~techs ~storage_bits =
  List.fold_left
    (fun (icts, sizes) tech ->
      match tech with
      | Tech.Parts.Proc p ->
          ( (p.Tech.Proc_model.name, p.Tech.Proc_model.var_access_us) :: icts,
            (p.Tech.Proc_model.name, Tech.Proc_model.variable_size_bytes p ~storage_bits)
            :: sizes )
      | Tech.Parts.Asic a ->
          ( (a.Tech.Asic_model.name, a.Tech.Asic_model.var_access_us) :: icts,
            (a.Tech.Asic_model.name, Tech.Asic_model.variable_size_gates a ~storage_bits)
            :: sizes )
      | Tech.Parts.Mem m ->
          ( (m.Tech.Mem_model.name, Tech.Mem_model.variable_access_us m) :: icts,
            (m.Tech.Mem_model.name, Tech.Mem_model.variable_size_words m ~storage_bits)
            :: sizes ))
    ([], []) techs

let run ?(profile = Flow.Profile.empty) ~techs sem (slif : Types.t) =
  Slif_obs.Span.with_ "slif.annotate" @@ fun () ->
  let nodes =
    Array.map
      (fun (node : Types.node) ->
        let icts, sizes =
          match node.n_kind with
          | Types.Behavior _ -> behavior_weights ~profile ~techs sem node.n_name
          | Types.Variable { storage_bits; _ } -> variable_weights ~techs ~storage_bits
        in
        { node with Types.n_ict = List.rev icts; n_size = List.rev sizes })
      slif.nodes
  in
  { slif with Types.nodes }
