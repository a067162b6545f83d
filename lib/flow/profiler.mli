(** Automatic profiling driver.

    Runs every process of a design for a number of passes under
    pseudo-random port stimuli and returns the observed branch-probability
    profile — the push-button version of the paper's "obtained ...
    through profiling".  Processes that exhaust the step budget or hit a
    runtime error contribute the observations gathered up to that point. *)

val auto :
  ?runs:int -> ?seed:int -> ?limits:Interp.limits -> Vhdl.Sem.t -> Profile.t
(** [auto sem] runs 10 passes with seed 1 by default.  Port inputs are
    drawn uniformly from [0, 256) (scaled into small ranges by the
    specifications' own arithmetic).  Adds the statements executed over
    all passes of all processes to the [flow.interp_steps] counter. *)
