(** Candidate filter boundaries and loop fission (§4.1).

    The compiler considers boundaries at the start/end of foreach loops,
    at conditionals, and at the start/end of function calls; any other
    loop must live entirely inside one filter.  If candidates would fall
    inside a foreach, the loop is fissioned first.  The result is the
    sequence of atomic filters f_1 .. f_{n+1} separated by the n
    candidate boundaries of the decomposition algorithm (§4.4). *)

open Lang

(** One atomic filter: a run of top-level statements. *)
type segment = {
  seg_index : int;            (** position in f_1 .. f_{n+1} (0-based) *)
  seg_stmts : Ast.stmt list;
  seg_label : string;         (** human-readable description *)
}

val pp_segment : Format.formatter -> segment -> unit

(** Legal split positions inside a foreach body: no body-local scalar
    lives across the split, and no outer variable written before it is
    read after it (which would reorder element-wise effects). *)
val foreach_split_points : Ast.foreach -> int list

(** Fission every top-level foreach of a pipelined body at all its legal
    split points.  Semantics-preserving under the foreach independence
    contract (property-tested against the interpreter). *)
val fission_body : Ast.stmt list -> Ast.stmt list

(** Is a boundary allowed immediately before this statement?  True for
    foreach, conditionals, loops, call statements, and declarations or
    assignments whose right-hand side is a non-builtin call. *)
val boundary_worthy : Ast.stmt -> bool

(** Partition an (already fissioned) statement list into segments; plain
    statements glue onto the following boundary-worthy statement. *)
val segments_of_stmts : Ast.stmt list -> segment list

(** The full phase: {!fission_body} then {!segments_of_stmts}. *)
val segments_of_body : Ast.stmt list -> segment list
