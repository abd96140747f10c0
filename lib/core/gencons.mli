(** One-pass Gen/Cons analysis (Figure 2 of the paper).

    For a code segment [b] between consecutive candidate boundaries,
    computes Gen(b) — values defined in [b] (must-information) — and
    Cons(b) — values used in [b] but not defined in it
    (may-information) — by a single reverse traversal.  Conditionals
    contribute Cons but never Gen; counted-loop accesses widen to
    rectilinear sections from the loop bounds; calls are analyzed
    interprocedurally and context-sensitively with formals mapped to
    actuals.  Writes through a reference join Gen only when {!Alias}
    proves it unaliased.  The traversals that only collect (declared
    names, called externs) recurse through {!Ast.sub_exprs} and
    {!Ast.stmt_parts}. *)

open Lang

(** Analysis context: class/function tables plus the kinds of the
    variables visible at segment boundaries. *)
type ctx

(** The pseudo-field naming the element value of a collection of
    primitives ([List<int>], [List<float>]). *)
val prim_field : string

(** [create_ctx prog body] is the context of the pipelined body [body]
    (the program's own, or its fissioned/segmented form): its outer
    variables are {!Tyenv.of_body}'s — the packet variable, the globals
    and the top-level declarations of [body]. *)
val create_ctx : Ast.program -> Ast.stmt list -> ctx

(** Gen and Cons of one segment. *)
val analyze_segment : ctx -> Ast.stmt list -> Varset.t * Varset.t

(** Names of extern functions (not defined in the program, not builtin)
    called anywhere in the statements — used to pin data sources and
    sinks. *)
val externs_called :
  Ast.program -> Ast.stmt list -> Set.Make(String).t

(** May-alias classes of a statement list under this context's kinds
    (used by {!Compile} to reject decompositions whose boundaries would
    split aliased references). *)
val aliases_of : ctx -> Ast.stmt list -> Alias.t
