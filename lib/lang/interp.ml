(* Resolve-once executor for checked PipeLang, with operation accounting.

   [create_ctx] takes a program the type checker has annotated, and its
   code is compiled once into OCaml closures over typed frames, then run:
   - a frame has three parts: [Value.t] slots, a flat [float array] and
     an [int array].  An [int] or [float] local, parameter, packet
     input, [for] counter, [foreach] variable and function result lives
     unboxed in the int or float part; any other variable is a [Value.t]
     slot.  Globals stay [Value.t] cells;
   - a [float] expression is compiled destination-style: it leaves its
     value in a register of the float part (a temporary, the local it is
     assigned to, or a constant pre-seeded from the frame's template),
     and each operator and float builtin is specialised inline, because
     an OCaml closure that returns a float or an indirect call that
     takes one boxes it.  An [int] expression is a [frame -> int]
     closure.  So arithmetic, comparisons, the numeric builtins, [float]
     fields, [float[]] elements, argument passing and [return] allocate
     nothing; a value is boxed only where it meets a [Value.t]: a field
     of another type, a list, an extern, a method, a global, and
     [lookup]/[setter];
   - an operand that reads a [Value.t] unboxes it where it is used, and
     a value that is no number (null, or the void of a function that
     ended without [return]) raises the error of the operator using it;
   - every call resolves to the compiled function, the builtin or the
     extern; methods are compiled once per (class, method) and cached.
     A call takes the frame its function's last finished call left
     behind, so a call allocates no frame either; a context therefore
     serves one domain at a time (its counter already did).  [return]
     leaves its value in a result register of the callee's frame, where
     the caller reads it, and raises a constant exception;
   - PipeLang has no inheritance, so every field access resolves at
     compile time, from the static class of its object, to a place in
     the object's [Value.t] slots or its flat [float] part
     ([Value.slot]).  [new] fills fields in declaration order;
   - a name that resolves to nothing compiles to code that raises the
     unbound-variable error when (and only if) it runs.

   Two uses: reference execution of a whole program (sequential, one
   packet at a time) for correctness oracles, and execution of filter
   code segments by the generated filters, over a packet frame filled
   from a stream buffer.

   Every executed operation is charged to the context's [Opcount.t]; the
   compiler's profiling pass and the simulated cluster both read it.
   Binary operands are evaluated right to left, call arguments left to
   right. *)

open Ast
module V = Value

type frame = { vals : V.t array; floats : float array; ints : int array }

(* The sizes of a frame's parts, and its float part as a fresh frame
   starts: zeros, with every constant register pre-seeded. *)
type layout = { nvals : int; nints : int; floats0 : float array }

let empty_layout = { nvals = 0; nints = 0; floats0 = [||] }

let frame_of l =
  {
    vals = Array.make l.nvals V.Vunit;
    floats = Array.copy l.floats0;
    ints = Array.make l.nints 0;
  }

let no_frame = frame_of empty_layout

(* Where a caller stores a parameter of the callee's frame. *)
type param = Pval of int | Pfloat of int | Pint of int

(* Where a function's [return] leaves its value: a register of the float
   or int part, a [Value.t] slot (a [bool] is one of two static values
   there), or nowhere. *)
type result = Rnone | Rfloat of int | Rint of int | Rval of int

(* A compiled function or method.  The record exists before its body is
   compiled, so recursive calls resolve to it. *)
type fn = {
  fn_decl : func_decl;
  fn_this : int;  (* [Value.t] slot of [this] in a method, -1 in a function *)
  fn_params : param array;
  fn_result : result;
  mutable fn_layout : layout;
  mutable fn_body : frame -> unit;
  mutable fn_spare : frame;  (* [no_frame], or a frame to reuse *)
}

type code = {
  funcs : (string, fn) Hashtbl.t;
  methods : (string * string, fn) Hashtbl.t;
}

type ctx = {
  prog : program;
  externs : (string, extern_fn) Hashtbl.t;
  runtime_defs : (string, int) Hashtbl.t;
  counter : Opcount.t;
  code : code;
}

(* Host-provided functions (data sources, sinks).  They receive the
   context so they can charge operation costs (e.g. per element read)
   and consult runtime_defines (query parameters). *)
and extern_fn = ctx -> V.t list -> V.t

(* Raised by [return] once its value is in the frame's result register. *)
exception Return
exception Break_loop
exception Continue_loop

(* Yield points: every loop back-edge decrements the domain's counter,
   and every [yield_every] of them call the hook (a no-op until a
   runtime installs one).  The counter lives in domain-local state,
   fetched once per loop, so domains never share its cache line. *)
type yield_point = { mutable left : int }

let yield_every = 256
let yield_hook = ref ignore
let yield_key = Domain.DLS.new_key (fun () -> { left = yield_every })
let set_yield_hook f = yield_hook := f

let back_edge yp =
  let n = yp.left - 1 in
  if n > 0 then yp.left <- n
  else begin
    yp.left <- yield_every;
    !yield_hook ()
  end

let create_ctx ?(externs = []) ?(runtime_defs = []) prog =
  if not prog.checked then invalid_arg "Interp.create_ctx: the program is not type-checked";
  let ext = Hashtbl.create 16 in
  List.iter (fun (name, fn) -> Hashtbl.replace ext name fn) externs;
  let rd = Hashtbl.create 8 in
  List.iter (fun (name, v) -> Hashtbl.replace rd name v) runtime_defs;
  {
    prog;
    externs = ext;
    runtime_defs = rd;
    counter = Opcount.create ();
    code = { funcs = Hashtbl.create 16; methods = Hashtbl.create 16 };
  }

let set_runtime_define ctx name v = Hashtbl.replace ctx.runtime_defs name v

let class_decl ctx name =
  match find_class ctx.prog name with
  | Some cd -> cd
  | None -> V.runtime_errorf "unknown class %s" name

let charge_int (c : Opcount.t) = c.int_ops <- c.int_ops + 1
let charge_float (c : Opcount.t) = c.float_ops <- c.float_ops + 1
let charge_mem (c : Opcount.t) = c.mem_ops <- c.mem_ops + 1
let charge_branch (c : Opcount.t) = c.branch_ops <- c.branch_ops + 1
let charge_call (c : Opcount.t) = c.calls <- c.calls + 1
let charge_append (c : Opcount.t) = c.appends <- c.appends + 1
let charge_alloc (c : Opcount.t) = c.allocs <- c.allocs + 1

(* --- operators --- *)

(* Integer arithmetic; the caller charges. *)
let[@inline] int_arith op x y =
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> if y = 0 then V.runtime_errorf "integer division by zero" else x / y
  | Mod -> if y = 0 then V.runtime_errorf "integer modulo by zero" else x mod y
  | _ -> assert false

(* Float arithmetic, inlined at each use: a call would box the floats. *)
let[@inline] float_arith op x y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | _ -> Float.rem x y

(* Whether comparison [op] holds of a [compare] result. *)
let[@inline] holds op r =
  match op with
  | Lt -> r < 0
  | Le -> r <= 0
  | Gt -> r > 0
  | Ge -> r >= 0
  | Eq -> r = 0
  | Ne -> r <> 0
  | _ -> assert false

(* [==] on the operands a checked program compares as [Value.t]s (it
   compares numbers unboxed): bools and strings by value, objects,
   arrays and lists by identity, and [null]. *)
let same a b =
  match (a, b) with
  | V.Vbool x, V.Vbool y -> x = y
  | V.Vstring x, V.Vstring y -> String.equal x y
  | V.Vrange (a, b), V.Vrange (c, d) -> a = c && b = d
  | V.Vobject x, V.Vobject y -> x == y
  | ( (V.Vnull | V.Vobject _ | V.Varray _ | V.Vfloats _ | V.Vlist _),
      (V.Vnull | V.Vobject _ | V.Varray _ | V.Vfloats _ | V.Vlist _) ) ->
      (* an array or a list has one box, made where it is *)
      a == b
  | _ -> V.runtime_errorf "comparison between %s and %s" (V.type_name a) (V.type_name b)

let vtrue = V.Vbool true
let vfalse = V.Vbool false
let of_bool b = if b then vtrue else vfalse

(* --- unboxing where typed code meets a [Value.t] --- *)

(* The error a non-number raises, by where typed code uses it. *)
type mismatch = V.t -> string

let expected what : mismatch =
 fun v -> Printf.sprintf "expected %s, got %s" what (V.type_name v)

let as_float_msg = expected "float"
let as_int_msg = expected "int"

let fail (bad : mismatch) v = raise (V.Runtime_error (bad v))

(* The static type name of an operand, for the messages that name both
   operands. *)
let ty_name (e : expr) =
  match e.ety with Some t -> ty_to_string t | None -> "void"

let arith_left b : mismatch =
 fun v -> Printf.sprintf "arithmetic on %s and %s" (V.type_name v) (ty_name b)

let arith_right a : mismatch =
 fun v -> Printf.sprintf "arithmetic on %s and %s" (ty_name a) (V.type_name v)

let compare_left b : mismatch =
 fun v -> Printf.sprintf "comparison between %s and %s" (V.type_name v) (ty_name b)

let compare_right a : mismatch =
 fun v -> Printf.sprintf "comparison between %s and %s" (ty_name a) (V.type_name v)

let negation_msg : mismatch = fun v -> "negation of " ^ V.type_name v

(* Unit-returning, so the float is never boxed to leave a function. *)
let store_float bad (f : float array) d = function
  | V.Vfloat x -> f.(d) <- x
  | V.Vint n -> f.(d) <- float_of_int n
  | v -> fail bad v

let unbox_int bad = function V.Vint n -> n | v -> fail bad v

(* --- compile-time scopes --- *)

(* Where a name lives: a slot of one of the running frame's parts, a
   global's cell, or nowhere. *)
type loc =
  | Slot of int
  | Fslot of int
  | Islot of int
  | Cell of V.t array * int
  | Unbound

(* The frame being laid out.  Float temporaries that are free again go
   to [free], and no variable or constant ever takes one. *)
type regs = {
  mutable nv : int;
  mutable nf : int;
  mutable ni : int;
  mutable free : int list;
  mutable consts : (float * int) list;
}

(* The lexical scopes being compiled, innermost first, each name with
   its slot and declared type.  All scopes of one function body (or one
   packet) share a frame, laid out by [regs]; [result] is where its
   [return] leaves the value. *)
type scopes = {
  levels : (string * (loc * ty)) list ref list;
  regs : regs;
  outer : string -> loc * ty;  (* names no scope declares *)
  result : result;
}

let no_outer _ = (Unbound, Tvoid)

let open_frame outer =
  {
    levels = [ ref [] ];
    regs = { nv = 0; nf = 0; ni = 0; free = []; consts = [] };
    outer;
    result = Rnone;
  }

let push_level sc = { sc with levels = ref [] :: sc.levels }

let layout_of r =
  let floats0 = Array.make r.nf 0.0 in
  List.iter (fun (x, i) -> floats0.(i) <- x) r.consts;
  { nvals = r.nv; nints = r.ni; floats0 }

let new_float r = r.nf <- r.nf + 1; r.nf - 1
let new_int r = r.ni <- r.ni + 1; r.ni - 1
let new_val r = r.nv <- r.nv + 1; r.nv - 1

(* The slot a declaration of [name] takes: a redeclaration in the same
   scope reuses the slot of its kind, so the new binding replaces the
   old one.  It is bound by [bind], after its initializer is compiled. *)
let slot_for sc ty name =
  let r = sc.regs in
  match (List.assoc_opt name !(List.hd sc.levels), ty) with
  | Some ((Fslot _ as l), _), Tfloat | Some ((Islot _ as l), _), Tint -> l
  | Some ((Slot _ as l), _), ty when ty <> Tfloat && ty <> Tint -> l
  | _, Tfloat -> Fslot (new_float r)
  | _, Tint -> Islot (new_int r)
  | _ -> Slot (new_val r)

let bind sc name ty l =
  let level = List.hd sc.levels in
  level := (name, (l, ty)) :: List.remove_assoc name !level

let declare sc ty name =
  let l = slot_for sc ty name in
  bind sc name ty l;
  l

let lookup sc name =
  let rec go = function
    | [] -> sc.outer name
    | level :: rest -> (
        match List.assoc_opt name !level with Some b -> b | None -> go rest)
  in
  go sc.levels

let resolve sc name = fst (lookup sc name)

let read_loc name = function
  | Slot i -> fun fr -> fr.vals.(i)
  | Fslot i -> fun fr -> V.Vfloat fr.floats.(i)
  | Islot i -> fun fr -> V.Vint fr.ints.(i)
  | Cell (cells, i) -> fun _ -> cells.(i)
  | Unbound -> fun _ -> V.runtime_errorf "unbound variable %s" name

let write_loc name = function
  | Slot i -> fun fr v -> fr.vals.(i) <- v
  | Fslot i -> fun fr v -> store_float as_float_msg fr.floats i v
  | Islot i -> fun fr v -> fr.ints.(i) <- unbox_int as_int_msg v
  | Cell (cells, i) -> fun _ v -> cells.(i) <- v
  | Unbound -> fun _ _ -> V.runtime_errorf "unbound variable %s" name

(* The representation an expression computes in: [int], [float] or none
   (a [Value.t]). *)
let numeric (e : expr) =
  match e.ety with Some ((Tint | Tfloat) as t) -> Some t | _ -> None

(* An expression whose value is stored as a [float]: a [float] one, or
   an [int] one the checker widened. *)
let float_valued (e : expr) =
  match e.ety with Some Tfloat -> true | Some Tint -> e.ewiden | _ -> false

(* --- fields --- *)

let field_ty ctx ty f =
  let cd = match ty with Tclass c -> find_class ctx.prog c | _ -> None in
  match Option.bind cd (fun cd -> List.find_opt (fun (_, n) -> n = f) cd.cd_fields) with
  | Some (t, _) -> t
  | None -> Tvoid

(* The static type of a place. *)
let rec lvalue_ty ctx sc = function
  | Lvar v -> snd (lookup sc v)
  | Lfield (l, f) -> field_ty ctx (lvalue_ty ctx sc l) f
  | Lindex (l, _) -> ( match lvalue_ty ctx sc l with Tarray t -> t | _ -> Tvoid)

(* The place ([Value.slot]) of field [f] in objects of static type [ty],
   when [ty] is a class. *)
let field_index ctx ty f =
  match ty with
  | Tclass c -> Option.map (fun cd -> V.slot cd f) (find_class ctx.prog c)
  | _ -> None

let expr_ty (e : expr) = Option.value e.ety ~default:Tvoid
let no_field f v = V.runtime_errorf "field .%s of non-object %s" f (V.type_name v)
let obj_to_read f = function V.Vobject o -> o | v -> no_field f v

let obj_to_write f = function
  | V.Vobject o -> o
  | w -> V.runtime_errorf "field write .%s on %s" f (V.type_name w)

(* [o.f] as a [Value.t]; by name when the class is not known
   statically. *)
let get_field f idx = function
  | V.Vobject o -> ( match idx with Some i -> V.get o i | None -> V.field o f)
  | (V.Varray _ | V.Vfloats _) as a when f = "length" -> V.Vint (V.array_length a)
  | v -> no_field f v

let set_field f idx o v =
  match idx with Some i -> V.set o i v | None -> V.set_field o f v

(* --- float registers --- *)

(* A float expression compiled destination-style: [run] leaves its
   value in register [reg] of the float part.  A constant or a float
   local runs nothing.  A [temp] register is the consumer's to
   [release], once everything evaluated between its run and its use is
   compiled. *)
type fexp = { reg : int; run : (frame -> unit) option; temp : bool }

let release sc x = if x.temp then sc.regs.free <- x.reg :: sc.regs.free

(* An [int] operand: the operator using a constant or an [int] local
   reads it inline. *)
type iexp = Iconst of int | Ivar of int | Icode of (frame -> int)

let icode = function
  | Iconst n -> fun _ -> n
  | Ivar k -> fun fr -> fr.ints.(k)
  | Icode x -> x

(* The register an operation writes: [dst] when given, else a
   temporary. *)
let out sc dst =
  match dst with
  | Some d -> (d, false)
  | None -> (
      let r = sc.regs in
      match r.free with
      | t :: rest ->
          r.free <- rest;
          (t, true)
      | [] -> (new_float r, true))

let const sc x =
  let r = sc.regs in
  let same (y, _) = Int64.equal (Int64.bits_of_float y) (Int64.bits_of_float x) in
  match List.find_opt same r.consts with
  | Some (_, i) -> { reg = i; run = None; temp = false }
  | None ->
      let i = new_float r in
      r.consts <- (x, i) :: r.consts;
      { reg = i; run = None; temp = false }

let computed sc dst f =
  let d, temp = out sc dst in
  { reg = d; run = Some (f d); temp }

(* The [Value.t] slot [e] reads, when it is a variable there. *)
let val_slot sc (e : expr) =
  match e.e with
  | Evar v -> ( match resolve sc v with Slot k -> Some k | _ -> None)
  | _ -> None

let nop (_ : frame) = ()
let run_of x = Option.value x.run ~default:nop

(* [x], then its value copied into register [d] if it is not there. *)
let move x d =
  let r = x.reg in
  match x.run with
  | None when r = d -> nop
  | None -> fun fr -> fr.floats.(d) <- fr.floats.(r)
  | Some run when r = d -> run
  | Some run ->
      fun fr ->
        run fr;
        fr.floats.(d) <- fr.floats.(r)

let rec eval_args args fr =
  match args with
  | [] -> []
  | e :: rest ->
      let v = e fr in
      v :: eval_args rest fr

let seq = function
  | [] -> fun _ -> ()
  | [ a ] -> a
  | [ a; b ] ->
      fun fr ->
        a fr;
        b fr
  | l ->
      let a = Array.of_list l in
      fun fr ->
        for i = 0 to Array.length a - 1 do
          a.(i) fr
        done

(* --- arrays --- *)

let not_array v = V.runtime_errorf "expected array, got %s" (V.type_name v)

let check_bounds idx n =
  if idx < 0 || idx >= n then
    V.runtime_errorf "array index %d out of bounds [0, %d)" idx n

(* The index [i] evaluates to, checked against an array of [n] for a
   store. *)
let store_index i fr n =
  let idx = i fr in
  if idx < 0 || idx >= n then V.runtime_errorf "array store index %d out of bounds" idx;
  idx

(* [a[i]]: the array is checked before the index is evaluated. *)
let index_read c a i fr =
  charge_mem c;
  match a fr with
  | V.Vfloats fa ->
      let idx = i fr in
      check_bounds idx (Array.length fa);
      V.Vfloat (Array.unsafe_get fa idx)
  | V.Varray arr ->
      let idx = i fr in
      check_bounds idx (Array.length arr);
      Array.unsafe_get arr idx
  | v -> not_array v

(* --- calls --- *)

(* Whether the body ran into [return]. *)
let run_fn fn fr = match fn.fn_body fr with () -> false | exception Return -> true

(* A finished call's result as a [Value.t]: void when the body ended
   without [return]. *)
let result_value fn callee returned =
  if not returned then V.Vunit
  else
    match fn.fn_result with
    | Rnone -> V.Vunit
    | Rfloat k -> V.Vfloat callee.floats.(k)
    | Rint k -> V.Vint callee.ints.(k)
    | Rval k -> callee.vals.(k)

(* A call takes its function's spare frame, the frame of a call that
   returned, if there is one; a recursive or interleaved call finds none
   and makes a fresh frame.  Every slot a call reads it has written
   first (a declaration without initializer writes the zero), and no
   code writes a constant register, so a spare frame needs no reset. *)
let take_frame fn =
  let fr = fn.fn_spare in
  if fr == no_frame then frame_of fn.fn_layout
  else begin
    fn.fn_spare <- no_frame;
    fr
  end

let set_param callee p v =
  match p with
  | Pval k -> callee.vals.(k) <- v
  | Pfloat k -> store_float as_float_msg callee.floats k v
  | Pint k -> callee.ints.(k) <- unbox_int as_int_msg v

(* Invoke a method with already-evaluated arguments. *)
let invoke fn recv argv =
  let n = List.length argv in
  if n <> Array.length fn.fn_params then
    V.runtime_errorf "%s: arity mismatch (%d expected, %d given)"
      fn.fn_decl.fd_name (Array.length fn.fn_params) n;
  let fr = take_frame fn in
  fr.vals.(fn.fn_this) <- recv;
  List.iteri (fun i v -> set_param fr fn.fn_params.(i) v) argv;
  let returned = run_fn fn fr in
  fn.fn_spare <- fr;
  result_value fn fr returned

let append c l v =
  charge_append c;
  V.Vec.push l v

let list_method c l m argv =
  match (m, argv) with
  | "add", [ v ] ->
      append c l v;
      V.Vunit
  | "size", [] -> V.Vint (V.Vec.length l)
  | "get", [ V.Vint i ] ->
      let n = V.Vec.length l in
      if i < 0 || i >= n then
        V.runtime_errorf "list index %d out of bounds [0, %d)" i n;
      V.Vec.get l i
  | "clear", [] ->
      V.Vec.clear l;
      V.Vunit
  | _ -> V.runtime_errorf "unknown List method %s/%d" m (List.length argv)

let is_float_builtin = function
  | "sqrt" | "fabs" | "sin" | "cos" | "floor" | "ceil" | "fmin" | "fmax"
  | "float_of_int" ->
      true
  | _ -> false

let is_int_builtin = function
  | "imin" | "imax" | "iabs" | "int_of_float" -> true
  | _ -> false

(* [register] receives the record before the body is compiled, so the
   body's recursive calls resolve to it. *)
let rec compile_fn ctx fd ~this ~register =
  let sc = open_frame no_outer in
  let fn_this =
    match this with
    | None -> -1
    | Some cd -> (
        match declare sc (Tclass cd.cd_name) "this" with Slot i -> i | _ -> assert false)
  in
  let fn_params =
    Array.of_list
      (List.map
         (fun (ty, name) ->
           match declare sc ty name with
           | Slot i -> Pval i
           | Fslot i -> Pfloat i
           | Islot i -> Pint i
           | Cell _ | Unbound -> assert false)
         fd.fd_params)
  in
  let r = sc.regs in
  let fn_result =
    match fd.fd_ret with
    | Tvoid -> Rnone
    | Tfloat -> Rfloat (new_float r)
    | Tint -> Rint (new_int r)
    | _ -> Rval (new_val r)
  in
  let fn =
    {
      fn_decl = fd;
      fn_this;
      fn_params;
      fn_result;
      fn_layout = empty_layout;
      fn_body = nop;
      fn_spare = no_frame;
    }
  in
  register fn;
  fn.fn_body <- compile_block ctx { sc with result = fn_result } fd.fd_body;
  fn.fn_layout <- layout_of r;
  fn

and function_code ctx fd =
  match Hashtbl.find_opt ctx.code.funcs fd.fd_name with
  | Some fn -> fn
  | None ->
      compile_fn ctx fd ~this:None ~register:(Hashtbl.replace ctx.code.funcs fd.fd_name)

(* The compiled method [m] of class [cd], compiled on first use. *)
and method_code ctx cd m =
  match Hashtbl.find_opt ctx.code.methods (cd.cd_name, m) with
  | Some fn -> fn
  | None -> (
      match find_method cd m with
      | None -> V.runtime_errorf "class %s has no method %s" cd.cd_name m
      | Some md ->
          compile_fn ctx md ~this:(Some cd)
            ~register:(Hashtbl.replace ctx.code.methods (cd.cd_name, m)))

and call_method ctx recv m argv =
  charge_call ctx.counter;
  match recv with
  | V.Vlist l -> list_method ctx.counter l m argv
  | V.Vobject obj -> invoke (method_code ctx obj.V.cls m) recv argv
  | v -> V.runtime_errorf "method call .%s on %s" m (V.type_name v)

(* --- expressions --- *)

(* A [Value.t]-valued expression.  An operation or numeric variable
   computes unboxed and boxes its result once; a widened expression (an
   [int] the checker accepted where a [float] is expected) stores a
   float. *)
and compile_expr ctx sc (e : expr) : frame -> V.t =
  let unboxed =
    match e.e with
    | Ebinop ((Add | Sub | Mul | Div | Mod), _, _) | Eunop (Neg, _) -> true
    | Evar v -> ( match resolve sc v with Fslot _ | Islot _ -> true | _ -> false)
    | Ecall (f, _) ->
        find_func ctx.prog f = None && (is_float_builtin f || is_int_builtin f)
    | _ -> false
  in
  match (e.e, numeric e) with
  | Eint n, _ when e.ewiden ->
      let v = V.Vfloat (float_of_int n) in
      fun _ -> v
  | _, Some Tint when unboxed && not e.ewiden ->
      let x = compile_i ctx sc e in
      fun fr -> V.Vint (x fr)
  | _, Some _ when unboxed || e.ewiden ->
      let x = compile_f ctx sc e in
      release sc x;
      let run = run_of x and r = x.reg in
      fun fr ->
        run fr;
        V.Vfloat fr.floats.(r)
  | _ -> compile_boxed ctx sc e

(* An expression read as a [Value.t] where it stands: a constant, a
   variable, a field, an element, a condition, a call or an
   allocation. *)
and compile_boxed ctx sc (e : expr) : frame -> V.t =
  let c = ctx.counter in
  let ce = compile_expr ctx sc in
  match e.e with
  | Eint n ->
      let v = V.Vint n in
      fun _ -> v
  | Efloat f ->
      let v = V.Vfloat f in
      fun _ -> v
  | Ebool b ->
      let v = of_bool b in
      fun _ -> v
  | Estring s ->
      let v = V.Vstring s in
      fun _ -> v
  | Enull -> fun _ -> V.Vnull
  | Eruntime_define name ->
      let x = runtime_define ctx name in
      fun fr -> V.Vint (x fr)
  | Evar v -> read_loc v (resolve sc v)
  | Efield (o, f) -> compile_field ctx sc o f
  | Eindex (a, i) -> index_read c (ce a) (compile_int ctx sc i)
  | Ebinop _ | Eunop _ ->
      (* arithmetic went unboxed in [compile_expr] *)
      let test = compile_cond ctx sc e in
      fun fr -> of_bool (test fr)
  | Ecall (f, args) -> (
      match find_func ctx.prog f with
      | Some fd ->
          call_with ctx sc fd args (fun fn _ callee returned ->
              result_value fn callee returned)
      | None when is_float_builtin f || is_int_builtin f -> ce e
      | None ->
          let args = List.map ce args in
          let run =
            if f = "print" then fun _ -> V.Vunit (* reference runs are silent *)
            else
              match Hashtbl.find_opt ctx.externs f with
              | Some ext -> ext ctx
              | None -> fun _ -> V.runtime_errorf "unknown function %s" f
          in
          fun fr ->
            let argv = eval_args args fr in
            charge_call c;
            run argv)
  | Emethod (({ ety = Some (Tlist _); _ } as o), "add", [ a ]) ->
      (* a [List] append without the argument list *)
      let o = ce o and a = ce a in
      fun fr ->
        let l = V.as_list (o fr) in
        let v = a fr in
        charge_call c;
        append c l v;
        V.Vunit
  | Emethod (o, m, args) ->
      let o = ce o and args = List.map ce args in
      fun fr ->
        let recv = o fr in
        call_method ctx recv m (eval_args args fr)
  | Enew (cname, args) ->
      let cls = class_decl ctx cname in
      let make = V.maker cls in
      let init (_, name) a =
        match V.slot cls name with
        | V.Flat k ->
            let x = compile_f ctx sc a in
            release sc x;
            let run = run_of x and r = x.reg in
            fun fr (o : V.obj) ->
              run fr;
              o.floats.(k) <- fr.floats.(r)
        | V.Boxed i ->
            let x = ce a in
            fun fr (o : V.obj) -> o.slots.(i) <- x fr
      in
      let inits =
        Array.of_list (if args = [] then [] else List.map2 init cls.cd_fields args)
      in
      fun fr ->
        charge_alloc c;
        let obj = make () in
        for i = 0 to Array.length inits - 1 do
          inits.(i) fr obj
        done;
        V.Vobject obj
  | Enew_array (t, n) ->
      let n = compile_int ctx sc n in
      fun fr ->
        charge_alloc c;
        let n = n fr in
        if n < 0 then V.runtime_errorf "negative array size %d" n;
        V.make_array t n
  | Enew_list _ ->
      fun _ ->
        charge_alloc c;
        V.Vlist (V.Vec.create ())
  | Erange (lo, hi) ->
      let lo = compile_int ctx sc lo and hi = compile_int ctx sc hi in
      fun fr ->
        let lo = lo fr in
        let hi = hi fr in
        V.Vrange (lo, hi)

(* [Hashtbl.find], since [find_opt] allocates its option. *)
and runtime_define ctx name _ =
  match Hashtbl.find ctx.runtime_defs name with
  | v -> v
  | exception Not_found -> V.runtime_errorf "runtime_define %s is not set" name

(* [o.f] as a [Value.t]; an object in a [Value.t] slot is read in
   place. *)
and compile_field ctx sc o f =
  let c = ctx.counter and idx = field_index ctx (expr_ty o) f in
  match val_slot sc o with
  | Some k ->
      fun fr ->
        charge_mem c;
        get_field f idx fr.vals.(k)
  | None ->
      let o = compile_expr ctx sc o in
      fun fr ->
        charge_mem c;
        get_field f idx (o fr)

and compile_iexp ?bad ctx sc (e : expr) =
  match e.e with
  | Eint n -> Iconst n
  | Evar v -> (
      match resolve sc v with
      | Islot k -> Ivar k
      | _ -> Icode (compile_i ?bad ctx sc e))
  | _ -> Icode (compile_i ?bad ctx sc e)

(* An [int] expression used as an index, a size or a bound. *)
and compile_int ctx sc (e : expr) : frame -> int = icode (compile_iexp ctx sc e)

(* An [int] expression.  [bad] is the error a [Value.t] operand that is
   no [int] raises. *)
and compile_i ?(bad = as_int_msg) ctx sc (e : expr) : frame -> int =
  let c = ctx.counter in
  let boxed () =
    let v = compile_boxed ctx sc e in
    fun fr -> unbox_int bad (v fr)
  in
  match e.e with
  | Eint n -> fun _ -> n
  | Eruntime_define name -> runtime_define ctx name
  | Evar v -> (
      match resolve sc v with
      | Islot k -> fun fr -> fr.ints.(k)
      | _ -> boxed ())
  | Efield (({ ety = Some (Tarray _); _ } as o), "length") -> (
      let o = compile_expr ctx sc o in
      fun fr ->
        charge_mem c;
        match o fr with
        | V.Varray a -> Array.length a
        | V.Vfloats a -> Array.length a
        | v -> no_field "length" v)
  | Efield (o, f) -> (
      match (field_index ctx (expr_ty o) f, val_slot sc o) with
      | Some (V.Boxed i), Some k ->
          fun fr ->
            charge_mem c;
            unbox_int bad (obj_to_read f fr.vals.(k)).slots.(i)
      | _ -> boxed ())
  | Ebinop (((Add | Sub | Mul | Div | Mod) as op), a, b) -> (
      let b' = compile_iexp ~bad:(arith_right a) ctx sc b in
      match (compile_iexp ~bad:(arith_left b) ctx sc a, b') with
      | Ivar ka, Iconst n ->
          fun fr ->
            charge_int c;
            int_arith op fr.ints.(ka) n
      | Ivar ka, Ivar kb ->
          fun fr ->
            charge_int c;
            let i = fr.ints in
            int_arith op i.(ka) i.(kb)
      | a, b ->
          let a = icode a and b = icode b in
          fun fr ->
            let y = b fr in
            let x = a fr in
            charge_int c;
            int_arith op x y)
  | Eunop (Neg, a) ->
      let a = compile_i ~bad:negation_msg ctx sc a in
      fun fr ->
        let x = a fr in
        charge_int c;
        -x
  | Ecall (f, args) -> (
      match (find_func ctx.prog f, args) with
      | Some fd, _ ->
          (* an [int] function, so its result is in an int register *)
          call_with ctx sc fd args (fun fn ->
              let r = match fn.fn_result with Rint r -> r | _ -> assert false in
              fun _ callee returned -> if returned then callee.ints.(r) else fail bad V.Vunit)
      | None, [ a; b ] when f = "imin" || f = "imax" ->
          let a = compile_i ctx sc a and b = compile_i ctx sc b in
          let op = if f = "imin" then Int.min else Int.max in
          fun fr ->
            let x = a fr in
            let y = b fr in
            charge_call c;
            charge_int c;
            op x y
      | None, [ a ] when f = "iabs" ->
          let a = compile_i ctx sc a in
          fun fr ->
            let x = a fr in
            charge_call c;
            charge_int c;
            abs x
      | None, [ a ] when f = "int_of_float" ->
          let x = compile_f ctx sc a in
          release sc x;
          let run = run_of x and r = x.reg in
          fun fr ->
            run fr;
            charge_call c;
            charge_int c;
            int_of_float fr.floats.(r)
      | _ -> boxed ())
  | _ -> boxed ()

(* A [float] expression, or an [int] one used as a float.  The root
   writes [dst] when given, unless the value already sits in a register
   (a constant or a float local); the caller then copies it ([move]).
   [bad] is the error a [Value.t] operand that is no number raises. *)
and compile_f ?dst ?(bad = as_float_msg) ctx sc (e : expr) : fexp =
  let c = ctx.counter in
  let boxed read =
    computed sc dst (fun d fr -> store_float bad fr.floats d (read fr))
  in
  match e.ety with
  | Some Tint -> (
      match e.e with
      | Eint n -> const sc (float_of_int n)
      | _ ->
          let x = compile_i ~bad ctx sc e in
          computed sc dst (fun d fr ->
              let n = x fr in
              fr.floats.(d) <- float_of_int n))
  | _ -> (
      match e.e with
      | Efloat x -> const sc x
      | Evar v -> (
          match resolve sc v with
          | Fslot k -> { reg = k; run = None; temp = false }
          | l -> boxed (read_loc v l))
      | Efield (o, f) -> (
          match field_index ctx (expr_ty o) f with
          | Some (V.Flat k) ->
              let base = compile_expr ctx sc o in
              computed sc dst (fun d fr ->
                  charge_mem c;
                  fr.floats.(d) <- (obj_to_read f (base fr)).floats.(k))
          | _ -> boxed (compile_field ctx sc o f))
      | Eindex (a, i) ->
          let a = compile_expr ctx sc a and i = compile_iexp ctx sc i in
          let index = icode i in
          let index fr = match i with Ivar k -> fr.ints.(k) | _ -> index fr in
          computed sc dst (fun d fr ->
              charge_mem c;
              match a fr with
              | V.Vfloats fa ->
                  let idx = index fr in
                  check_bounds idx (Array.length fa);
                  fr.floats.(d) <- Array.unsafe_get fa idx
              | V.Varray arr ->
                  let idx = index fr in
                  check_bounds idx (Array.length arr);
                  store_float bad fr.floats d (Array.unsafe_get arr idx)
              | v -> not_array v)
      | Ebinop (((Add | Sub | Mul | Div | Mod) as op), a, b) ->
          let xb = compile_f ~bad:(arith_right a) ctx sc b in
          let xa = compile_f ~bad:(arith_left b) ctx sc a in
          release sc xa;
          release sc xb;
          computed sc dst (farith c op xa xb)
      | Eunop (Neg, a) ->
          let x = compile_f ~bad:negation_msg ctx sc a in
          release sc x;
          let r = x.reg and run = run_of x in
          computed sc dst (fun d fr ->
              run fr;
              charge_float c;
              let f = fr.floats in
              f.(d) <- -.f.(r))
      | Ecall (f, args) -> (
          match find_func ctx.prog f with
          | Some fd ->
              computed sc dst (fun d ->
                  call_with ctx sc fd args (fun fn ->
                      let r = match fn.fn_result with Rfloat r -> r | _ -> assert false in
                      fun fr callee returned ->
                        if returned then fr.floats.(d) <- callee.floats.(r)
                        else fail bad V.Vunit))
          | None -> (
              match float_builtin ctx sc dst f args with
              | Some x -> x
              | None -> boxed (compile_boxed ctx sc e)))
      | _ -> boxed (compile_boxed ctx sc e))

(* [a op b] into register [d], the operator inline; an operand that
   sits in a register already is not run. *)
and farith c op xa xb d =
  let ra = xa.reg and rb = xb.reg in
  match (xa.run, xb.run) with
  | None, None ->
      fun fr ->
        charge_float c;
        let f = fr.floats in
        f.(d) <- float_arith op f.(ra) f.(rb)
  | Some runa, None ->
      fun fr ->
        runa fr;
        charge_float c;
        let f = fr.floats in
        f.(d) <- float_arith op f.(ra) f.(rb)
  | None, Some runb ->
      fun fr ->
        runb fr;
        charge_float c;
        let f = fr.floats in
        f.(d) <- float_arith op f.(ra) f.(rb)
  | Some runa, Some runb ->
      fun fr ->
        runb fr;
        runa fr;
        charge_float c;
        let f = fr.floats in
        f.(d) <- float_arith op f.(ra) f.(rb)

(* A float builtin with its argument count, inline; [None] for anything
   else. *)
and float_builtin ctx sc dst f args =
  let c = ctx.counter in
  match (f, args) with
  | "float_of_int", [ a ] ->
      let a = compile_i ctx sc a in
      Some
        (computed sc dst (fun d fr ->
             let n = a fr in
             charge_call c;
             charge_float c;
             fr.floats.(d) <- float_of_int n))
  | ("fmin" | "fmax"), [ a; b ] ->
      let xa = compile_f ctx sc a in
      let xb = compile_f ctx sc b in
      release sc xa;
      release sc xb;
      let ra = xa.reg and rb = xb.reg and runa = run_of xa and runb = run_of xb in
      let args fr =
        runa fr;
        runb fr;
        charge_call c;
        charge_float c;
        fr.floats
      in
      (* [Stdlib.min]/[max]'s argument order for a NaN and a signed zero *)
      Some
        (computed sc dst (fun d ->
             if f = "fmin" then fun fr ->
               let f = args fr in
               let x = f.(ra) and y = f.(rb) in
               f.(d) <- (if x <= y then x else y)
             else fun fr ->
               let f = args fr in
               let x = f.(ra) and y = f.(rb) in
               f.(d) <- (if x >= y then x else y)))
  | ("sqrt" | "fabs" | "sin" | "cos" | "floor" | "ceil"), [ a ] ->
      let x = compile_f ctx sc a in
      release sc x;
      let r = x.reg and run = run_of x in
      let arg fr =
        run fr;
        charge_call c;
        charge_float c;
        fr.floats
      in
      Some
        (computed sc dst (fun d ->
             match f with
             | "sqrt" -> fun fr -> let f = arg fr in f.(d) <- sqrt f.(r)
             | "fabs" -> fun fr -> let f = arg fr in f.(d) <- abs_float f.(r)
             | "sin" -> fun fr -> let f = arg fr in f.(d) <- sin f.(r)
             | "cos" -> fun fr -> let f = arg fr in f.(d) <- cos f.(r)
             | "floor" -> fun fr -> let f = arg fr in f.(d) <- floor f.(r)
             | _ -> fun fr -> let f = arg fr in f.(d) <- ceil f.(r)))
  | _ -> None

(* An expression in a test position, evaluated straight to a bool. *)
and compile_cond ctx sc (e : expr) : frame -> bool =
  let c = ctx.counter in
  match e.e with
  | Ebool b -> fun _ -> b
  | Ebinop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) -> (
      match (numeric a, numeric b) with
      | Some Tint, Some Tint ->
          let b' = compile_iexp ~bad:(compare_right a) ctx sc b in
          icompare c op (compile_iexp ~bad:(compare_left b) ctx sc a) b'
      | Some _, Some _ ->
          let xb = compile_f ~bad:(compare_right a) ctx sc b in
          let xa = compile_f ~bad:(compare_left b) ctx sc a in
          release sc xa;
          release sc xb;
          fcompare c op xa xb
      | _ ->
          let a = compile_expr ctx sc a and b = compile_expr ctx sc b in
          fun fr ->
            let vb = b fr in
            let va = a fr in
            charge_int c;
            holds op (if same va vb then 0 else 1))
  | Ebinop (And, a, b) ->
      let a = compile_cond ctx sc a and b = compile_cond ctx sc b in
      fun fr ->
        charge_branch c;
        a fr && b fr
  | Ebinop (Or, a, b) ->
      let a = compile_cond ctx sc a and b = compile_cond ctx sc b in
      fun fr ->
        charge_branch c;
        a fr || b fr
  | Eunop (Not, a) ->
      let a = compile_cond ctx sc a in
      fun fr ->
        charge_int c;
        not (a fr)
  | _ ->
      let e = compile_expr ctx sc e in
      fun fr -> V.as_bool (e fr)

and icompare c op a b : frame -> bool =
  match (a, b) with
  | Ivar ka, Iconst n ->
      fun fr ->
        charge_int c;
        holds op (Int.compare fr.ints.(ka) n)
  | Ivar ka, Ivar kb ->
      fun fr ->
        charge_int c;
        let i = fr.ints in
        holds op (Int.compare i.(ka) i.(kb))
  | a, b ->
      let a = icode a and b = icode b in
      fun fr ->
        let y = b fr in
        let x = a fr in
        charge_int c;
        holds op (Int.compare x y)

(* Float comparisons go by [Float.compare], which orders a NaN below
   every float and equal to itself; inline, since a helper taking two
   floats would box them. *)
and fcompare c op xa xb =
  let ra = xa.reg and rb = xb.reg in
  match (xa.run, xb.run) with
  | None, None ->
      fun fr ->
        charge_float c;
        let f = fr.floats in
        holds op (Float.compare f.(ra) f.(rb))
  | Some runa, None ->
      fun fr ->
        runa fr;
        charge_float c;
        let f = fr.floats in
        holds op (Float.compare f.(ra) f.(rb))
  | None, Some runb ->
      fun fr ->
        runb fr;
        charge_float c;
        let f = fr.floats in
        holds op (Float.compare f.(ra) f.(rb))
  | Some runa, Some runb ->
      fun fr ->
        runb fr;
        runa fr;
        charge_float c;
        let f = fr.floats in
        holds op (Float.compare f.(ra) f.(rb))

(* A call of program function [fd]: the arguments go straight into the
   callee's frame, an [int] or [float] one unboxed, and [k fn caller
   callee returned] reads the result out of the callee's frame. *)
and call_with :
      'a. ctx -> scopes -> func_decl -> expr list ->
      (fn -> frame -> frame -> bool -> 'a) -> frame -> 'a =
 fun ctx sc fd args k ->
  let c = ctx.counter in
  let fn = function_code ctx fd in
  let args = Array.of_list (List.mapi (fun i a -> compile_arg ctx sc fn.fn_params.(i) a) args) in
  let k = k fn in
  fun fr ->
    let callee = take_frame fn in
    for i = 0 to Array.length args - 1 do
      args.(i) fr callee
    done;
    charge_call c;
    let returned = run_fn fn callee in
    fn.fn_spare <- callee;
    k fr callee returned

(* Evaluate one argument into its parameter of the callee's frame. *)
and compile_arg ctx sc p (a : expr) : frame -> frame -> unit =
  match p with
  | Pfloat k -> (
      let x = compile_f ctx sc a in
      release sc x;
      let r = x.reg in
      match x.run with
      | None -> fun fr callee -> callee.floats.(k) <- fr.floats.(r)
      | Some run ->
          fun fr callee ->
            run fr;
            callee.floats.(k) <- fr.floats.(r))
  | Pint k ->
      let x = compile_i ctx sc a in
      fun fr callee -> callee.ints.(k) <- x fr
  | Pval k ->
      let v = compile_expr ctx sc a in
      fun fr callee -> callee.vals.(k) <- v fr

(* --- statements --- *)

and compile_stmt ctx sc (st : stmt) : frame -> unit =
  let c = ctx.counter in
  let ce = compile_expr ctx sc in
  match st.s with
  | Sdecl (ty, name, init) -> compile_decl ctx sc ty name init (slot_for sc ty name)
  | Sassign (Lvar name, e) -> (
      match resolve sc name with
      | Fslot k ->
          let store = move (compile_f ~dst:k ctx sc e) k in
          fun fr ->
            store fr;
            charge_mem c
      | Islot k ->
          let x = compile_i ctx sc e in
          fun fr ->
            let n = x fr in
            charge_mem c;
            fr.ints.(k) <- n
      | _ ->
          let e = ce e and assign = compile_assign ctx sc (Lvar name) in
          fun fr -> assign fr (e fr))
  | Sassign (Lfield (l, f), e) -> (
      match field_index ctx (lvalue_ty ctx sc l) f with
      | Some (V.Flat k) -> (
          (* a [float] field: stored unboxed into the flat part *)
          let x = compile_f ctx sc e in
          let base = compile_read ctx sc l in
          release sc x;
          let run = run_of x and r = x.reg in
          fun fr ->
            run fr;
            charge_mem c;
            (obj_to_write f (base fr)).floats.(k) <- fr.floats.(r))
      | _ ->
          let e = ce e and assign = compile_assign ctx sc (Lfield (l, f)) in
          fun fr -> assign fr (e fr))
  | Sassign (Lindex (l, i), e) when float_valued e ->
      (* a [float[]] element: stored unboxed into the flat form *)
      let x = compile_f ctx sc e in
      let base = compile_read ctx sc l and i = compile_int ctx sc i in
      release sc x;
      let run = run_of x and r = x.reg in
      fun fr ->
        run fr;
        charge_mem c;
        (match base fr with
        | V.Vfloats fa -> fa.(store_index i fr (Array.length fa)) <- fr.floats.(r)
        | V.Varray arr -> arr.(store_index i fr (Array.length arr)) <- V.Vfloat fr.floats.(r)
        | w -> not_array w)
  | Sassign (l, e) ->
      let e = ce e and assign = compile_assign ctx sc l in
      fun fr -> assign fr (e fr)
  | Supdate (Lindex (base, i), op, e) -> compile_index_update ctx sc base i op e
  | Supdate (Lvar name, op, e) -> (
      match resolve sc name with
      | Fslot k ->
          let x = compile_f ctx sc e in
          release sc x;
          let run = run_of x and r = x.reg in
          fun fr ->
            run fr;
            charge_float c;
            let f = fr.floats in
            f.(k) <- float_arith op f.(k) f.(r);
            charge_mem c
      | Islot k ->
          let x = compile_i ctx sc e in
          fun fr ->
            let y = x fr in
            charge_int c;
            fr.ints.(k) <- int_arith op fr.ints.(k) y;
            charge_mem c
      | _ -> compile_update ctx sc (Lvar name) op e)
  | Supdate (Lfield (l, f), op, e) -> (
      match field_index ctx (lvalue_ty ctx sc l) f with
      | Some (V.Flat k) ->
          (* a [float] field, read and written in place; the place is
             resolved twice, as a read and then as a write *)
          let x = compile_f ctx sc e in
          let base = compile_read ctx sc l in
          release sc x;
          let run = run_of x and r = x.reg in
          fun fr ->
            run fr;
            charge_mem c;
            let old = (obj_to_read f (base fr)).floats.(k) in
            charge_float c;
            let v = float_arith op old fr.floats.(r) in
            charge_mem c;
            (obj_to_write f (base fr)).floats.(k) <- v
      | _ -> compile_update ctx sc (Lfield (l, f)) op e)
  | Sif (cond, th, el) ->
      let cond = compile_cond ctx sc cond in
      let th = compile_block ctx sc th and el = compile_block ctx sc el in
      fun fr ->
        charge_branch c;
        if cond fr then th fr else el fr
  | Sfor (init, cond, step, body) ->
      let sc = push_level sc in
      let init = compile_stmt ctx sc init in
      let cond = compile_cond ctx sc cond in
      let body = compile_block ctx sc body in
      let step = compile_stmt ctx sc step in
      fun fr ->
        init fr;
        let yp = Domain.DLS.get yield_key in
        (try
           while
             charge_branch c;
             cond fr
           do
             (try body fr with Continue_loop -> ());
             step fr;
             back_edge yp
           done
         with Break_loop -> ())
  | Swhile (cond, body) -> (
      let cond = compile_cond ctx sc cond and body = compile_block ctx sc body in
      fun fr ->
        let yp = Domain.DLS.get yield_key in
        try
          while
            charge_branch c;
            cond fr
          do
            (try body fr with Continue_loop -> ());
            back_edge yp
          done
        with Break_loop -> ())
  | Sforeach fe -> compile_foreach ctx sc fe
  | Sexpr e ->
      let e = ce e in
      fun fr -> ignore (e fr)
  | Sreturn None -> fun _ -> raise_notrace Return
  | Sreturn (Some e) -> (
      match sc.result with
      | Rfloat k ->
          let store = move (compile_f ~dst:k ctx sc e) k in
          fun fr ->
            store fr;
            raise_notrace Return
      | Rint k ->
          let x = compile_i ctx sc e in
          fun fr ->
            fr.ints.(k) <- x fr;
            raise_notrace Return
      | Rval k ->
          let e = ce e in
          fun fr ->
            fr.vals.(k) <- e fr;
            raise_notrace Return
      | Rnone ->
          let e = ce e in
          fun fr ->
            ignore (e fr);
            raise_notrace Return)
  | Sbreak -> fun _ -> raise_notrace Break_loop
  | Scontinue -> fun _ -> raise_notrace Continue_loop
  | Sblock body -> compile_block ctx sc body

(* A declaration into slot [l]; the initializer sees the scope before
   the declaration. *)
and compile_decl ctx sc ty name init l =
  let code =
    match (l, init) with
    | Fslot k, Some e -> move (compile_f ~dst:k ctx sc e) k
    | Fslot k, None -> fun fr -> fr.floats.(k) <- 0.0
    | Islot k, Some e ->
        let x = compile_i ctx sc e in
        fun fr -> fr.ints.(k) <- x fr
    | Islot k, None -> fun fr -> fr.ints.(k) <- 0
    | _, Some e ->
        let x = compile_expr ctx sc e in
        let write = write_loc name l in
        fun fr -> write fr (x fr)
    | _, None -> (
        let write = write_loc name l in
        match ty with
        | Tlist _ -> fun fr -> write fr (V.zero_of_ty ty)
        | _ ->
            let z = V.zero_of_ty ty in
            fun fr -> write fr z)
  in
  bind sc name ty l;
  code

(* [l op= e] on a place read and written as a [Value.t] (a global, a
   field of another type than [float]); the place is a [float] exactly
   when [e] is stored as one (the checker marks a widened [e]). *)
and compile_update ctx sc l op e =
  let c = ctx.counter in
  let bad = arith_left e in
  if float_valued e then begin
    let x = compile_f ctx sc e in
    let read = compile_read ctx sc l and assign = compile_assign ctx sc l in
    let run = run_of x and r = x.reg and t = new_float sc.regs in
    release sc x;
    fun fr ->
      run fr;
      store_float bad fr.floats t (read fr);
      charge_float c;
      let f = fr.floats in
      assign fr (V.Vfloat (float_arith op f.(t) f.(r)))
  end
  else
    let x = compile_i ctx sc e in
    let read = compile_read ctx sc l and assign = compile_assign ctx sc l in
    fun fr ->
      let y = x fr in
      let old = unbox_int bad (read fr) in
      charge_int c;
      assign fr (V.Vint (int_arith op old y))

(* [a[i] op= e]: the place is resolved once, since the index expression
   must not be evaluated twice (it may have side effects); a flat
   [float[]] element is updated in place. *)
and compile_index_update ctx sc base i op e =
  let c = ctx.counter in
  (* [e]'s register stays held while the place is compiled *)
  let x = if float_valued e then Some (compile_f ctx sc e) else None in
  let base = compile_read ctx sc base and i = compile_int ctx sc i in
  let index fr n =
    let idx = i fr in
    if idx < 0 || idx >= n then
      V.runtime_errorf "array update index %d out of bounds" idx;
    charge_mem c;
    idx
  in
  match x with
  | Some x -> (
      release sc x;
      let run = run_of x and r = x.reg in
      fun fr ->
        run fr;
        charge_mem c;
        match base fr with
        | V.Vfloats fa ->
            let idx = index fr (Array.length fa) in
            charge_float c;
            fa.(idx) <- float_arith op fa.(idx) fr.floats.(r)
        | V.Varray arr ->
            let idx = index fr (Array.length arr) in
            charge_float c;
            arr.(idx) <- V.Vfloat (float_arith op (V.as_float arr.(idx)) fr.floats.(r))
        | w -> not_array w)
  | None -> (
      let x = compile_i ctx sc e and bad = arith_left e in
      fun fr ->
        let y = x fr in
        charge_mem c;
        match base fr with
        | V.Varray arr ->
            let idx = index fr (Array.length arr) in
            let old = unbox_int bad arr.(idx) in
            charge_int c;
            arr.(idx) <- V.Vint (int_arith op old y)
        | w -> not_array w)

(* The loop variable takes each element; an [int] or [float] one
   unboxed, a rectdomain's index and a flat [float[]]'s element without
   a box. *)
and compile_foreach ctx sc { fe_var; fe_coll; fe_where; fe_body } =
  let c = ctx.counter in
  let coll = compile_expr ctx sc fe_coll in
  let sc = push_level sc in
  let elt_ty =
    match fe_coll.ety with
    | Some Trectdomain -> Tint
    | Some (Tlist t | Tarray t) -> t
    | _ -> Tvoid
  in
  let l = declare sc elt_ty fe_var in
  let where = Option.map (compile_cond ctx sc) fe_where in
  let body = compile_block ctx sc fe_body in
  let set = write_loc fe_var l in
  fun fr ->
    let coll = coll fr in
    let yp = Domain.DLS.get yield_key in
    let run_elt () =
      charge_branch c;
      let selected = match where with None -> true | Some w -> w fr in
      (if selected then try body fr with Continue_loop -> ());
      back_edge yp
    in
    try
      match coll with
      | V.Vrange (lo, hi) ->
          for i = lo to hi - 1 do
            (match l with Islot k -> fr.ints.(k) <- i | _ -> set fr (V.Vint i));
            run_elt ()
          done
      | V.Vfloats a ->
          for j = 0 to Array.length a - 1 do
            (match l with
            | Fslot k -> fr.floats.(k) <- Array.unsafe_get a j
            | _ -> set fr (V.Vfloat (Array.unsafe_get a j)));
            run_elt ()
          done
      | V.Vlist xs ->
          V.Vec.iter
            (fun v ->
              set fr v;
              run_elt ())
            xs
      | V.Varray a ->
          Array.iter
            (fun v ->
              set fr v;
              run_elt ())
            a
      | v -> V.runtime_errorf "foreach over %s" (V.type_name v)
    with Break_loop -> ()

(* A block opens a scope; its declarations take fresh slots. *)
and compile_block ctx sc body =
  let sc = push_level sc in
  seq (List.map (compile_stmt ctx sc) body)

and compile_read ctx sc = function
  | Lvar v -> read_loc v (resolve sc v)
  | Lfield (l, f) ->
      let c = ctx.counter and idx = field_index ctx (lvalue_ty ctx sc l) f in
      let base = compile_read ctx sc l in
      fun fr ->
        charge_mem c;
        get_field f idx (base fr)
  | Lindex (l, i) ->
      index_read ctx.counter (compile_read ctx sc l) (compile_int ctx sc i)

and compile_assign ctx sc l : frame -> V.t -> unit =
  let c = ctx.counter in
  match l with
  | Lvar name ->
      let write = write_loc name (resolve sc name) in
      fun fr v ->
        charge_mem c;
        write fr v
  | Lfield (l, f) ->
      let idx = field_index ctx (lvalue_ty ctx sc l) f in
      let base = compile_read ctx sc l in
      fun fr v ->
        charge_mem c;
        set_field f idx (obj_to_write f (base fr)) v
  | Lindex (l, i) -> (
      let l = compile_read ctx sc l and i = compile_int ctx sc i in
      fun fr v ->
        charge_mem c;
        match l fr with
        | V.Vfloats fa -> fa.(store_index i fr (Array.length fa)) <- V.as_float v
        | V.Varray arr -> arr.(store_index i fr (Array.length arr)) <- v
        | w -> not_array w)

(* --- globals and packets --- *)

type globals = { cells : V.t array; names : (string * (loc * ty)) list }

(* Evaluate the top-level declarations in order; each initializer sees
   the globals declared before it.  The cells are the [Value.t] part of
   the initializers' frame, where every global takes a slot. *)
let init_globals ctx =
  let sc = open_frame no_outer in
  let inits =
    List.map
      (fun g ->
        compile_decl ctx sc g.gd_ty g.gd_name g.gd_init (Slot (new_val sc.regs)))
      ctx.prog.globals
  in
  let fr = frame_of (layout_of sc.regs) in
  List.iter (fun init -> init fr) inits;
  { cells = fr.vals; names = !(List.hd sc.levels) }

let global_loc globals name =
  match List.assoc_opt name globals.names with
  | Some (Slot i, ty) -> (Cell (globals.cells, i), ty)
  | _ -> no_outer name

let global_value globals name =
  read_loc name (fst (global_loc globals name)) no_frame

type packet_code = {
  segments : (frame -> unit) array;
  packet_scope : scopes;
  layout : layout;
}

(* [int] slot 0 holds the packet index; the inputs follow in order. *)
let compile_packet ctx globals ~inputs segments =
  let sc = open_frame (global_loc globals) in
  ignore (declare sc Tint ctx.prog.pipeline.pd_var);
  List.iter (fun (name, ty) -> ignore (declare sc ty name)) inputs;
  let segment stmts = seq (List.map (compile_stmt ctx sc) stmts) in
  let segments = Array.of_list (List.map segment segments) in
  { segments; packet_scope = sc; layout = layout_of sc.regs }

let new_frame pk ~packet =
  let fr = frame_of pk.layout in
  fr.ints.(0) <- packet;
  fr

let run_segment pk i fr = pk.segments.(i) fr
let segment_count pk = Array.length pk.segments
let getter pk name = read_loc name (resolve pk.packet_scope name)
let setter pk name = write_loc name (resolve pk.packet_scope name)

let lookup pk names =
  let getters = List.map (fun name -> (name, getter pk name)) names in
  fun fr name ->
    match List.assoc_opt name getters with
    | Some get -> get fr
    | None -> getter pk name fr

(* Run the whole pipelined loop sequentially: the reference semantics
   against which every decomposed execution is checked. *)
let run_reference ctx =
  let globals = init_globals ctx in
  let pd = ctx.prog.pipeline in
  let sc = open_frame (global_loc globals) in
  let count = compile_int ctx sc pd.pd_count in
  let n = count (frame_of (layout_of sc.regs)) in
  let pk =
    compile_packet ctx globals ~inputs:[] [ [ mk_stmt (Sblock pd.pd_body) ] ]
  in
  for p = 0 to n - 1 do
    run_segment pk 0 (new_frame pk ~packet:p)
  done;
  globals
