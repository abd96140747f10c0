(** Abstract syntax of PipeLang, the Java-like dialect of the paper.

    The dialect exposes exactly the constructs the compiler relies on:
    [Rectdomain] index collections, order-independent [foreach] loops
    (optionally with a [where] selection clause), classes implementing
    [Reducinterface] whose updates are associative and commutative, a
    [pipelined] loop over data packets, and [runtime_define] constants
    fixed by the host at run time.  {!sub_exprs} and {!stmt_parts} are
    the one structural walk that the compiler's analyses share. *)

type ty =
  | Tint
  | Tfloat
  | Tbool
  | Tvoid
  | Tstring
  | Tarray of ty
  | Tlist of ty        (** growable output collection, iterable by foreach *)
  | Trectdomain        (** 1-d rectilinear index domain [lo : hi) *)
  | Tclass of string

val ty_to_string : ty -> string
val ty_equal : ty -> ty -> bool

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

type unop = Neg | Not

val binop_to_string : binop -> string

type expr = {
  e : expr_desc;
  eloc : Srcloc.t;
  mutable ety : ty option;  (** filled in by the type checker *)
  mutable ewiden : bool;
      (** set by the type checker on an [int] accepted where a [float] is
          expected; the interpreter converts its value *)
}

and expr_desc =
  | Eint of int
  | Efloat of float
  | Ebool of bool
  | Estring of string
  | Enull
  | Evar of string
  | Efield of expr * string
  | Eindex of expr * expr
  | Ebinop of binop * expr * expr
  | Eunop of unop * expr
  | Ecall of string * expr list          (** global function or builtin *)
  | Emethod of expr * string * expr list
  | Enew of string * expr list           (** [new C(args)] *)
  | Enew_array of ty * expr              (** [new t[n]] *)
  | Enew_list of ty                      (** [new List<t>()] *)
  | Erange of expr * expr                (** [[lo : hi]] rectdomain literal *)
  | Eruntime_define of string

type lvalue =
  | Lvar of string
  | Lfield of lvalue * string
  | Lindex of lvalue * expr

type stmt = { s : stmt_desc; sloc : Srcloc.t }

and stmt_desc =
  | Sdecl of ty * string * expr option
  | Sassign of lvalue * expr
  | Supdate of lvalue * binop * expr
      (** [l op= e]; on a reduction variable this is an associative
          update *)
  | Sif of expr * stmt list * stmt list
  | Sfor of stmt * expr * stmt * stmt list
  | Swhile of expr * stmt list
  | Sforeach of foreach
  | Sexpr of expr
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sblock of stmt list

and foreach = {
  fe_var : string;
  fe_coll : expr;
  fe_where : expr option;
      (** selection clause: iteration is compacted to matching elements —
          the fission-friendly form of a guarding conditional *)
  fe_body : stmt list;
}

type func_decl = {
  fd_name : string;
  fd_params : (ty * string) list;
  fd_ret : ty;
  fd_body : stmt list;
  fd_loc : Srcloc.t;
}

type class_decl = {
  cd_name : string;
  cd_reduc : bool;  (** implements Reducinterface *)
  cd_fields : (ty * string) list;
  cd_methods : func_decl list;
  cd_loc : Srcloc.t;
}

(** A top-level variable, declared before the pipelined loop.  Globals of
    a class implementing [Reducinterface] are the cross-packet reduction
    variables: per-packet partial results are merged into them with
    associative/commutative [merge] calls. *)
type global_decl = {
  gd_ty : ty;
  gd_name : string;
  gd_init : expr option;
  gd_loc : Srcloc.t;
}

(** The single pipelined loop of a program: its body is the unit of
    decomposition into filters. *)
type pipeline_decl = {
  pd_var : string;   (** packet index variable *)
  pd_count : expr;   (** number of packets *)
  pd_body : stmt list;
  pd_loc : Srcloc.t;
}

type program = {
  classes : class_decl list;
  funcs : func_decl list;
  globals : global_decl list;
  pipeline : pipeline_decl;
  mutable checked : bool; (* set by the type checker once it accepts *)
}

val find_class : program -> string -> class_decl option
val find_func : program -> string -> func_decl option
val find_method : class_decl -> string -> func_decl option
val is_reduction_class : program -> string -> bool

(** The variable ultimately written by an lvalue. *)
val lvalue_base : lvalue -> string

(** {2 The structural walk}

    The compiler's analyses recurse through these two functions and
    match only the forms they treat specially. *)

(** The direct subexpressions of an expression, left to right. *)
val sub_exprs : expr -> expr list

(** [stmt_parts st] is [(es, ss)]: the expressions [st] evaluates itself
    — an lvalue's index expressions included — and the statements nested
    in it (branches, loop header statements and bodies, block members). *)
val stmt_parts : stmt -> expr list * stmt list

val mk_expr : ?loc:Srcloc.t -> expr_desc -> expr
val mk_stmt : ?loc:Srcloc.t -> stmt_desc -> stmt
