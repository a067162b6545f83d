let auto ?(runs = 10) ?(seed = 1) ?(limits = Interp.default_limits) sem =
  Slif_obs.Span.with_ "flow.auto_profile" ~args:[ ("runs", string_of_int runs) ]
  @@ fun () ->
  let rng = Slif_util.Prng.create seed in
  let machine =
    Interp.create ~limits ~inputs:(fun _ -> Slif_util.Prng.int rng 256) sem
  in
  let design = Vhdl.Sem.design sem in
  let steps = ref 0 in
  for _ = 1 to runs do
    List.iter
      (fun (p : Vhdl.Ast.process) ->
        (* A pass that dies keeps its partial observations. *)
        (try Interp.run_process machine p.Vhdl.Ast.proc_name with
        | Interp.Limit_exceeded _ | Interp.Runtime_error _ -> ());
        (* The statement that exceeds the step budget does not run. *)
        steps := !steps + min (Interp.steps machine) limits.Interp.max_steps)
      design.Vhdl.Ast.processes
  done;
  Slif_obs.Counter.add "flow.interp_steps" !steps;
  Interp.profile machine
