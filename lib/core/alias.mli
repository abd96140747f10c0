(** Conservative alias information for the Gen/Cons analysis.

    Figure 2 assumes "(potentially conservative) alias information is
    available": Gen updates use must-alias information, Cons updates use
    may-alias information.  PipeLang aliases arise from reference
    assignments between object/collection variables; references stored
    into fields or collection elements "escape" and conservatively alias
    every other escaped reference.  The classes are flow-insensitive —
    the same statements in any order give the same classes — hence
    sound as may-information. *)

open Lang

type t

val create : unit -> t

(** Union two variables' alias classes. *)
val union : t -> string -> string -> unit

(** Mark a variable's class as stored into a structure; the mark
    stays with the class through later unions. *)
val mark_escaped : t -> string -> unit

(** Might the two names refer to the same object? *)
val may_alias : t -> string -> string -> bool

(** Is [v] definitely the only name for its object: never unioned with
    another name and never escaped?  Writes through [v] may then join
    Gen. *)
val unaliased : t -> string -> bool

(** Collect the alias classes of a statement list; [is_ref v] says
    whether [v] names a reference (class, list or array) variable. *)
val of_stmts : is_ref:(string -> bool) -> Ast.stmt list -> t
