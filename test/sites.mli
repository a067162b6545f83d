(** Static numbering of control sites.

    [Flow.Count] numbers branch sites (if/case) and while sites in pre-order
    during its walk; the dynamic profiler must attribute executed branches
    to the same numbers.  This module reproduces the numbering as a map
    from statement {e paths} — the chain of (child-list, index) steps from
    the behavior body to the statement — to site ids.  The reference
    interpreter ({!Interp_ref}) records through it; [Flow.Interp] numbers
    sites as it compiles, and the differential test checks the two agree. *)

type path = int list
(** Flattened pre-order statement index chain; element [k] is the position
    of the statement within the [k]-th nesting level's statement list,
    counting every list the walker descends into (if-arms, else, case
    alternatives, loop bodies) in traversal order. *)

type t

val of_body : Vhdl.Ast.stmt list -> t

val branch_site : t -> path -> int option
(** Site id of the if/case statement at [path]. *)

val while_site : t -> path -> int option
