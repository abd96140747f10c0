(** Type checker for PipeLang.

    Checks a whole program against the usual Java-like rules (with
    implicit int-to-float widening) and annotates every expression with
    its type, marking each widened one ([Ast.expr.ewiden]).  Reduction
    classes must declare
    [void merge(C other)] — the runtime relies on it to combine
    per-packet and per-copy partial results. *)

(** Signature of a host-provided function (data source or sink). *)
type extern_sig = {
  ex_name : string;
  ex_params : Ast.ty list;
  ex_ret : Ast.ty;
}

(** The built-in math/conversion functions every program may call:
    [sqrt], [fabs], [sin], [cos], [floor], [ceil], [fmin], [fmax],
    [imin], [imax], [iabs], [int_of_float], [float_of_int], [print]. *)
val builtin_externs : extern_sig list

(** Is [name] one of {!builtin_externs}? *)
val is_builtin : string -> bool

(** [check ?externs prog] type checks the program, raising
    {!Srcloc.Error} on the first violation.  [externs] declares the host
    functions available on top of {!builtin_externs}.  It annotates
    every expression with its type, and sets [prog.checked] once the
    whole program is accepted; [null] is a value of every class and
    array type. *)
val check : ?externs:extern_sig list -> Ast.program -> unit
