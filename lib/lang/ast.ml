(* Abstract syntax of PipeLang, the Java-like dialect of the paper.

   The dialect exposes exactly the constructs the paper relies on:
   - [Rectdomain] collections with coordinates and [foreach] loops whose
     iteration order does not affect the result;
   - classes implementing [Reducinterface], i.e. reduction variables whose
     updates are associative and commutative;
   - a [pipelined] loop over packets, each processed independently except
     for reduction updates;
   - [runtime_define] for values fixed at run time (packet counts). *)

type ty =
  | Tint
  | Tfloat
  | Tbool
  | Tvoid
  | Tstring
  | Tarray of ty
  | Tlist of ty        (* growable output collection, iterable by foreach *)
  | Trectdomain        (* 1-d rectilinear index domain [lo : hi) *)
  | Tclass of string

let rec ty_to_string = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tbool -> "bool"
  | Tvoid -> "void"
  | Tstring -> "String"
  | Tarray t -> ty_to_string t ^ "[]"
  | Tlist t -> "List<" ^ ty_to_string t ^ ">"
  | Trectdomain -> "Rectdomain<1>"
  | Tclass c -> c

let rec ty_equal a b =
  match (a, b) with
  | Tint, Tint | Tfloat, Tfloat | Tbool, Tbool | Tvoid, Tvoid | Tstring, Tstring
  | Trectdomain, Trectdomain ->
      true
  | Tarray x, Tarray y | Tlist x, Tlist y -> ty_equal x y
  | Tclass x, Tclass y -> String.equal x y
  | _ -> false

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

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | And -> "&&"
  | Or -> "||"

type expr = {
  e : expr_desc;
  eloc : Srcloc.t;
  mutable ety : ty option;
  mutable ewiden : bool;
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
  | Ecall of string * expr list          (* global function or builtin *)
  | Emethod of expr * string * expr list (* method invocation *)
  | Enew of string * expr list           (* new C(args) *)
  | Enew_array of ty * expr              (* new t[n] *)
  | Enew_list of ty                      (* new List<t>() *)
  | Erange of expr * expr                (* [lo : hi] rectdomain literal *)
  | Eruntime_define of string            (* runtime_define name *)

type lvalue =
  | Lvar of string
  | Lfield of lvalue * string
  | Lindex of lvalue * expr

type stmt = { s : stmt_desc; sloc : Srcloc.t }

and stmt_desc =
  | Sdecl of ty * string * expr option
  | Sassign of lvalue * expr
  | Supdate of lvalue * binop * expr     (* l op= e; on a reduction variable
                                            this is an associative update *)
  | Sif of expr * stmt list * stmt list
  | Sfor of stmt * expr * stmt * stmt list
  | Swhile of expr * stmt list
  (* foreach (x in coll where cond) body.  [where] compacts the iteration
     to selected elements; it is the fission-friendly form of a guarding
     conditional inside a foreach. *)
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
  cd_reduc : bool; (* implements Reducinterface *)
  cd_fields : (ty * string) list;
  cd_methods : func_decl list;
  cd_loc : Srcloc.t;
}

(* The single pipelined loop of a program: [pipelined (p in [0 :
   runtime_define num_packets]) { body }].  The body is the unit of
   decomposition into filters. *)
type pipeline_decl = {
  pd_var : string;         (* packet index variable *)
  pd_count : expr;         (* number of packets *)
  pd_body : stmt list;
  pd_loc : Srcloc.t;
}

(* A top-level variable, declared before the pipelined loop.  Globals of a
   class implementing [Reducinterface] are the cross-packet reduction
   variables of the paper: per-packet partial results are merged into them
   with associative/commutative [merge] calls. *)
type global_decl = {
  gd_ty : ty;
  gd_name : string;
  gd_init : expr option;
  gd_loc : Srcloc.t;
}

type program = {
  classes : class_decl list;
  funcs : func_decl list;
  globals : global_decl list;
  pipeline : pipeline_decl;
  mutable checked : bool; (* set by the type checker once it accepts *)
}

let find_class prog name = List.find_opt (fun c -> c.cd_name = name) prog.classes
let find_func prog name = List.find_opt (fun f -> f.fd_name = name) prog.funcs

let find_method cls name =
  List.find_opt (fun m -> m.fd_name = name) cls.cd_methods

let is_reduction_class prog name =
  match find_class prog name with Some c -> c.cd_reduc | None -> false

(* The base variable of an lvalue: the variable ultimately being written. *)
let rec lvalue_base = function
  | Lvar v -> v
  | Lfield (l, _) -> lvalue_base l
  | Lindex (l, _) -> lvalue_base l

(* The one structural walk of the analyses: an expression's direct
   subexpressions, and the expressions a statement evaluates itself (lvalue
   indices included) beside the statements nested in it. *)
let sub_exprs e =
  match e.e with
  | Eint _ | Efloat _ | Ebool _ | Estring _ | Enull | Evar _ | Enew_list _
  | Eruntime_define _ ->
      []
  | Efield (a, _) | Eunop (_, a) | Enew_array (_, a) -> [ a ]
  | Eindex (a, b) | Ebinop (_, a, b) | Erange (a, b) -> [ a; b ]
  | Ecall (_, args) | Enew (_, args) -> args
  | Emethod (o, _, args) -> o :: args

let rec lvalue_indices acc = function
  | Lvar _ -> acc
  | Lfield (l, _) -> lvalue_indices acc l
  | Lindex (l, i) -> lvalue_indices (i :: acc) l

let stmt_parts st =
  match st.s with
  | Sdecl (_, _, init) -> (Option.to_list init, [])
  | Sassign (l, e) | Supdate (l, _, e) -> (lvalue_indices [ e ] l, [])
  | Sif (c, th, el) -> ([ c ], th @ el)
  | Sfor (init, c, step, body) -> ([ c ], init :: step :: body)
  | Swhile (c, body) -> ([ c ], body)
  | Sforeach fe -> (fe.fe_coll :: Option.to_list fe.fe_where, fe.fe_body)
  | Sexpr e | Sreturn (Some e) -> ([ e ], [])
  | Sreturn None | Sbreak | Scontinue -> ([], [])
  | Sblock body -> ([], body)

let mk_expr ?(loc = Srcloc.dummy) e = { e; eloc = loc; ety = None; ewiden = false }
let mk_stmt ?(loc = Srcloc.dummy) s = { s; sloc = loc }
