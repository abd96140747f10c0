(* Resolve-once executor for PipeLang with operation accounting.

   Code is compiled once into OCaml closures over slot frames, then run:
   - every variable resolves at compile time to a slot of a per-call or
     per-packet [Value.t array] frame (each block declaration gets its
     own slot), or to a global's cell;
   - every call resolves to the compiled function, the builtin or the
     extern; methods are compiled once per (class, method) and cached;
   - every field access resolves to a slot of the object's record
     through a per-site one-entry cache ([Value.site]) of the class last
     seen and the slot there; typed sites see one class, an untyped site
     resolves again when the class changes.  [new] fills slots in order;
   - every arithmetic and comparison operator resolves to a function
     with direct cases for two floats and two ints ([arith_fn],
     [compare_fn]); a store into a flat [float[]] ([Value.Vfloats])
     unboxes its value, and a read boxes one [Vfloat];
   - a name that resolves to nothing compiles to code that raises the
     unbound-variable error when (and only if) it runs.

   Two uses:
   - reference execution of a whole program (sequential, one packet at a
     time) for correctness oracles;
   - execution of individual filter code segments by the generated
     filters, over a packet frame filled from a stream buffer.

   Every executed operation is charged to the context's [Opcount.t]; the
   compiler's profiling pass and the simulated cluster both read it.
   Binary operands are evaluated right to left, call arguments left to
   right. *)

open Ast
module V = Value

type frame = V.t array

(* A compiled function or method.  The record exists before its body is
   compiled, so recursive calls resolve to it. *)
type fn = {
  fn_decl : func_decl;
  fn_this : int;  (* slot of [this] in a method, -1 in a function *)
  fn_params : int array;  (* slot of each parameter *)
  mutable fn_slots : int;  (* frame size *)
  mutable fn_body : frame -> unit;
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

exception Return_value of V.t
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

(* --- numeric helpers --- *)

let arith c op a b =
  match (a, b) with
  | V.Vint x, V.Vint y ->
      charge_int c;
      V.Vint
        (match op with
        | Add -> x + y
        | Sub -> x - y
        | Mul -> x * y
        | Div ->
            if y = 0 then V.runtime_errorf "integer division by zero" else x / y
        | Mod ->
            if y = 0 then V.runtime_errorf "integer modulo by zero" else x mod y
        | _ -> assert false)
  | (V.Vfloat _ | V.Vint _), (V.Vfloat _ | V.Vint _) ->
      charge_float c;
      let x = V.as_float a and y = V.as_float b in
      V.Vfloat
        (match op with
        | Add -> x +. y
        | Sub -> x -. y
        | Mul -> x *. y
        | Div -> x /. y
        | Mod -> Float.rem x y
        | _ -> assert false)
  | _ ->
      V.runtime_errorf "arithmetic on %s and %s" (V.type_name a) (V.type_name b)

let compare_vals c op a b =
  let r =
    match (a, b) with
    | V.Vint x, V.Vint y ->
        charge_int c;
        compare x y
    | (V.Vfloat _ | V.Vint _), (V.Vfloat _ | V.Vint _) ->
        charge_float c;
        compare (V.as_float a) (V.as_float b)
    | V.Vbool x, V.Vbool y ->
        charge_int c;
        compare x y
    | V.Vstring x, V.Vstring y ->
        charge_int c;
        String.compare x y
    | _ ->
        V.runtime_errorf "comparison between %s and %s" (V.type_name a)
          (V.type_name b)
  in
  match op with
  | Lt -> r < 0
  | Le -> r <= 0
  | Gt -> r > 0
  | Ge -> r >= 0
  | Eq -> r = 0
  | Ne -> r <> 0
  | _ -> assert false

(* Each operator resolved once, at compile time: two floats or two ints
   take a direct case, any other pair the generic [arith] or
   [compare_vals] (mixed operands widen, other types raise).  The float
   comparisons go by [Float.compare], which orders a NaN below every
   float and equal to itself, like [compare_vals]. *)
let arith_fn c op : V.t -> V.t -> V.t =
  match op with
  | Add -> (
      fun a b ->
        match (a, b) with
        | V.Vfloat x, V.Vfloat y -> charge_float c; V.Vfloat (x +. y)
        | V.Vint x, V.Vint y -> charge_int c; V.Vint (x + y)
        | _ -> arith c op a b)
  | Sub -> (
      fun a b ->
        match (a, b) with
        | V.Vfloat x, V.Vfloat y -> charge_float c; V.Vfloat (x -. y)
        | V.Vint x, V.Vint y -> charge_int c; V.Vint (x - y)
        | _ -> arith c op a b)
  | Mul -> (
      fun a b ->
        match (a, b) with
        | V.Vfloat x, V.Vfloat y -> charge_float c; V.Vfloat (x *. y)
        | V.Vint x, V.Vint y -> charge_int c; V.Vint (x * y)
        | _ -> arith c op a b)
  | Div -> (
      fun a b ->
        match (a, b) with
        | V.Vfloat x, V.Vfloat y -> charge_float c; V.Vfloat (x /. y)
        | V.Vint x, V.Vint y when y <> 0 -> charge_int c; V.Vint (x / y)
        | _ -> arith c op a b)
  | Mod -> (
      fun a b ->
        match (a, b) with
        | V.Vfloat x, V.Vfloat y -> charge_float c; V.Vfloat (Float.rem x y)
        | V.Vint x, V.Vint y when y <> 0 -> charge_int c; V.Vint (x mod y)
        | _ -> arith c op a b)
  | _ -> arith c op

let compare_fn c op : V.t -> V.t -> bool =
  match op with
  | Lt -> (
      fun a b ->
        match (a, b) with
        | V.Vfloat x, V.Vfloat y -> charge_float c; Float.compare x y < 0
        | V.Vint x, V.Vint y -> charge_int c; x < y
        | _ -> compare_vals c op a b)
  | Le -> (
      fun a b ->
        match (a, b) with
        | V.Vfloat x, V.Vfloat y -> charge_float c; Float.compare x y <= 0
        | V.Vint x, V.Vint y -> charge_int c; x <= y
        | _ -> compare_vals c op a b)
  | Gt -> (
      fun a b ->
        match (a, b) with
        | V.Vfloat x, V.Vfloat y -> charge_float c; Float.compare x y > 0
        | V.Vint x, V.Vint y -> charge_int c; x > y
        | _ -> compare_vals c op a b)
  | Ge -> (
      fun a b ->
        match (a, b) with
        | V.Vfloat x, V.Vfloat y -> charge_float c; Float.compare x y >= 0
        | V.Vint x, V.Vint y -> charge_int c; x >= y
        | _ -> compare_vals c op a b)
  | Eq -> (
      fun a b ->
        match (a, b) with
        | V.Vfloat x, V.Vfloat y -> charge_float c; Float.compare x y = 0
        | V.Vint x, V.Vint y -> charge_int c; x = y
        | _ -> compare_vals c op a b)
  | Ne -> (
      fun a b ->
        match (a, b) with
        | V.Vfloat x, V.Vfloat y -> charge_float c; Float.compare x y <> 0
        | V.Vint x, V.Vint y -> charge_int c; x <> y
        | _ -> compare_vals c op a b)
  | _ -> compare_vals c op

(* Monomorphic [Stdlib.min]/[max]: the same argument order for a NaN
   and for a signed zero, without the polymorphic compare. *)
let fmin (x : float) y = if x <= y then x else y
let fmax (x : float) y = if x >= y then x else y
let imin (x : int) y = if x <= y then x else y
let imax (x : int) y = if x >= y then x else y

let vtrue = V.Vbool true
let vfalse = V.Vbool false
let of_bool b = if b then vtrue else vfalse

(* Builtins by arity, so a call with the right argument count runs
   without building an argument list. *)
type builtin = B1 of (V.t -> V.t) | B2 of (V.t -> V.t -> V.t)

let builtin c name =
  let f1 op =
    B1
      (fun a ->
        charge_float c;
        V.Vfloat (op (V.as_float a)))
  in
  let f2 op =
    B2
      (fun a b ->
        charge_float c;
        V.Vfloat (op (V.as_float a) (V.as_float b)))
  in
  let i2 op =
    B2
      (fun a b ->
        charge_int c;
        V.Vint (op (V.as_int a) (V.as_int b)))
  in
  match name with
  | "sqrt" -> Some (f1 sqrt)
  | "fabs" -> Some (f1 abs_float)
  | "sin" -> Some (f1 sin)
  | "cos" -> Some (f1 cos)
  | "floor" -> Some (f1 floor)
  | "ceil" -> Some (f1 ceil)
  | "fmin" -> Some (f2 fmin)
  | "fmax" -> Some (f2 fmax)
  | "imin" -> Some (i2 imin)
  | "imax" -> Some (i2 imax)
  | "iabs" ->
      Some
        (B1
           (fun a ->
             charge_int c;
             V.Vint (abs (V.as_int a))))
  | "int_of_float" ->
      Some
        (B1
           (fun a ->
             charge_int c;
             V.Vint (int_of_float (V.as_float a))))
  | "float_of_int" ->
      Some
        (B1
           (fun a ->
             charge_float c;
             V.Vfloat (float_of_int (V.as_int a))))
  | "print" ->
      (* reference runs are silent; hosts override via externs *)
      Some (B1 (fun _ -> V.Vunit))
  | _ -> None

(* --- compile-time scopes --- *)

(* Where a name lives: a slot of the running frame, a global's cell, or
   nowhere. *)
type loc = Slot of int | Cell of V.t array * int | Unbound

(* The lexical scopes being compiled, innermost first.  All scopes of
   one function body (or one packet) share a frame, sized by [size]. *)
type scopes = {
  levels : (string * int) list ref list;
  size : int ref;
  outer : string -> loc;  (* names no scope declares *)
}

let no_outer _ = Unbound

let open_frame outer = { levels = [ ref [] ]; size = ref 0; outer }
let push_level sc = { sc with levels = ref [] :: sc.levels }

(* Declare [name] in the innermost scope.  A redeclaration in the same
   scope reuses the slot: the new binding replaces the old one. *)
let declare sc name =
  let level = List.hd sc.levels in
  match List.assoc_opt name !level with
  | Some i -> i
  | None ->
      let i = !(sc.size) in
      incr sc.size;
      level := (name, i) :: !level;
      i

let resolve sc name =
  let rec go = function
    | [] -> sc.outer name
    | level :: rest -> (
        match List.assoc_opt name !level with
        | Some i -> Slot i
        | None -> go rest)
  in
  go sc.levels

let read_loc name = function
  | Slot i -> fun (fr : frame) -> fr.(i)
  | Cell (cells, i) -> fun _ -> cells.(i)
  | Unbound -> fun _ -> V.runtime_errorf "unbound variable %s" name

let write_loc name = function
  | Slot i -> fun (fr : frame) v -> fr.(i) <- v
  | Cell (cells, i) -> fun _ v -> cells.(i) <- v
  | Unbound -> fun _ _ -> V.runtime_errorf "unbound variable %s" name

let rec eval_args args (fr : frame) =
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

let field_read c base f =
  let slot = V.site f in
  fun fr ->
    charge_mem c;
    match base fr with
    | V.Vobject obj -> obj.V.slots.(slot obj)
    | (V.Varray _ | V.Vfloats _) as a when f = "length" -> V.Vint (V.array_length a)
    | v -> V.runtime_errorf "field .%s of non-object %s" f (V.type_name v)

(* --- arrays --- *)

let not_array v = V.runtime_errorf "expected array, got %s" (V.type_name v)

(* [a[i]]: the array is checked before the index is evaluated. *)
let index_read c a i fr =
  charge_mem c;
  let bounds idx n =
    if idx < 0 || idx >= n then
      V.runtime_errorf "array index %d out of bounds [0, %d)" idx n
  in
  match a fr with
  | V.Vfloats fa ->
      let idx = V.as_int (i fr) in
      bounds idx (Array.length fa);
      V.Vfloat (Array.unsafe_get fa idx)
  | V.Varray arr ->
      let idx = V.as_int (i fr) in
      bounds idx (Array.length arr);
      Array.unsafe_get arr idx
  | v -> not_array v

(* --- calls --- *)

let run_fn fn fr =
  try
    fn.fn_body fr;
    V.Vunit
  with Return_value v -> v

let arity_error fn given =
  V.runtime_errorf "%s: arity mismatch (%d expected, %d given)"
    fn.fn_decl.fd_name
    (Array.length fn.fn_params)
    given

(* Invoke a method with already-evaluated arguments. *)
let invoke fn recv argv =
  let n = List.length argv in
  if n <> Array.length fn.fn_params then arity_error fn n;
  let fr = Array.make fn.fn_slots V.Vunit in
  fr.(fn.fn_this) <- recv;
  List.iteri (fun i v -> fr.(fn.fn_params.(i)) <- v) argv;
  run_fn fn fr

let list_method c l m argv =
  match (m, argv) with
  | "add", [ v ] ->
      charge_append c;
      V.Vec.push l v;
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

(* [register] receives the record before the body is compiled, so the
   body's recursive calls resolve to it. *)
let rec compile_fn ctx fd ~is_method ~register =
  let sc = open_frame no_outer in
  let fn_this = if is_method then declare sc "this" else -1 in
  let fn_params =
    Array.of_list (List.map (fun (_, name) -> declare sc name) fd.fd_params)
  in
  let fn =
    { fn_decl = fd; fn_this; fn_params; fn_slots = 0; fn_body = (fun _ -> ()) }
  in
  register fn;
  fn.fn_body <- compile_block ctx sc fd.fd_body;
  fn.fn_slots <- !(sc.size);
  fn

and function_code ctx fd =
  match Hashtbl.find_opt ctx.code.funcs fd.fd_name with
  | Some fn -> fn
  | None ->
      compile_fn ctx fd ~is_method:false
        ~register:(Hashtbl.replace ctx.code.funcs fd.fd_name)

(* The compiled method [m] of class [cd], compiled on first use. *)
and method_code ctx cd m =
  match Hashtbl.find_opt ctx.code.methods (cd.cd_name, m) with
  | Some fn -> fn
  | None -> (
      match find_method cd m with
      | None -> V.runtime_errorf "class %s has no method %s" cd.cd_name m
      | Some md ->
          compile_fn ctx md ~is_method:true
            ~register:(Hashtbl.replace ctx.code.methods (cd.cd_name, m)))

and call_method ctx recv m argv =
  charge_call ctx.counter;
  match recv with
  | V.Vlist l -> list_method ctx.counter l m argv
  | V.Vobject obj -> invoke (method_code ctx obj.V.cls m) recv argv
  | v -> V.runtime_errorf "method call .%s on %s" m (V.type_name v)

(* --- expressions --- *)

(* A widened expression (an [int] the checker accepted where a [float]
   is expected) stores a float; any other expression pays nothing. *)
and compile_expr ctx sc (e : expr) : frame -> V.t =
  let v = compile_expr_desc ctx sc e in
  if e.ewiden then fun fr -> V.Vfloat (V.as_float (v fr)) else v

and compile_expr_desc ctx sc (e : expr) : frame -> V.t =
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
      let v = V.Vbool b in
      fun _ -> v
  | Estring s ->
      let v = V.Vstring s in
      fun _ -> v
  | Enull -> fun _ -> V.Vnull
  | Eruntime_define name -> (
      fun _ ->
        match Hashtbl.find_opt ctx.runtime_defs name with
        | Some v -> V.Vint v
        | None -> V.runtime_errorf "runtime_define %s is not set" name)
  | Evar v -> read_loc v (resolve sc v)
  | Efield (o, f) -> field_read c (ce o) f
  | Eindex (a, i) -> index_read c (ce a) (ce i)
  | Ebinop (And, a, b) ->
      let a = compile_cond ctx sc a and b = ce b in
      fun fr ->
        charge_branch c;
        if a fr then b fr else vfalse
  | Ebinop (Or, a, b) ->
      let a = compile_cond ctx sc a and b = ce b in
      fun fr ->
        charge_branch c;
        if a fr then vtrue else b fr
  | Ebinop (((Add | Sub | Mul | Div | Mod) as op), a, b) ->
      let a = ce a and b = ce b and op = arith_fn c op in
      fun fr ->
        let vb = b fr in
        let va = a fr in
        op va vb
  | Ebinop ((Lt | Le | Gt | Ge | Eq | Ne), _, _) | Eunop (Not, _) ->
      let test = compile_cond ctx sc e in
      fun fr -> of_bool (test fr)
  | Eunop (Neg, a) -> (
      let a = ce a in
      fun fr ->
        match a fr with
        | V.Vint n ->
            charge_int c;
            V.Vint (-n)
        | V.Vfloat f ->
            charge_float c;
            V.Vfloat (-.f)
        | v -> V.runtime_errorf "negation of %s" (V.type_name v))
  | Ecall (f, args) -> compile_call ctx f (List.map ce args)
  | Emethod (o, m, args) ->
      let o = ce o and args = List.map ce args in
      fun fr ->
        let recv = o fr in
        call_method ctx recv m (eval_args args fr)
  | Enew (cname, args) -> (
      match find_class ctx.prog cname with
      | None ->
          fun _ ->
            charge_alloc c;
            V.runtime_errorf "unknown class %s" cname
      | Some cls ->
          let args = Array.of_list (List.map ce args) in
          let n = Array.length args in
          fun fr ->
            charge_alloc c;
            let obj = V.make_object cls in
            if n > 0 && n <> Array.length obj.V.slots then
              V.runtime_errorf "new %s expects %d arguments, got %d" cname
                (Array.length obj.V.slots) n;
            for i = 0 to n - 1 do
              obj.V.slots.(i) <- args.(i) fr
            done;
            V.Vobject obj)
  | Enew_array (t, n) ->
      let n = ce n in
      fun fr ->
        charge_alloc c;
        let n = V.as_int (n fr) in
        if n < 0 then V.runtime_errorf "negative array size %d" n;
        V.make_array t n
  | Enew_list _ ->
      fun _ ->
        charge_alloc c;
        V.Vlist (V.Vec.create ())
  | Erange (lo, hi) ->
      let lo = ce lo and hi = ce hi in
      fun fr ->
        let lo = V.as_int (lo fr) in
        let hi = V.as_int (hi fr) in
        V.Vrange (lo, hi)


(* An expression in a test position, evaluated straight to a bool. *)
and compile_cond ctx sc (e : expr) : frame -> bool =
  let c = ctx.counter in
  match e.e with
  | Ebool b -> fun _ -> b
  | Ebinop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) ->
      let a = compile_expr ctx sc a and b = compile_expr ctx sc b in
      let op = compare_fn c op in
      fun fr ->
        let vb = b fr in
        let va = a fr in
        op va vb
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

(* A call resolves to the program function of that name, else the
   builtin, else the extern.  Arguments go straight into the callee's
   frame. *)
and compile_call ctx f args =
  let c = ctx.counter in
  match find_func ctx.prog f with
  | Some fd ->
      let fn = function_code ctx fd in
      let args = Array.of_list args in
      let n = Array.length args in
      if n <> Array.length fn.fn_params then (fun fr ->
        Array.iter (fun a -> ignore (a fr)) args;
        charge_call c;
        arity_error fn n)
      else
        fun fr ->
          let callee = Array.make fn.fn_slots V.Vunit in
          for i = 0 to n - 1 do
            callee.(fn.fn_params.(i)) <- args.(i) fr
          done;
          charge_call c;
          run_fn fn callee
  | None -> (
      match (builtin c f, args) with
      | Some (B1 op), [ a ] ->
          fun fr ->
            let v = a fr in
            charge_call c;
            op v
      | Some (B2 op), [ a; b ] ->
          fun fr ->
            let va = a fr in
            let vb = b fr in
            charge_call c;
            op va vb
      | Some b, _ ->
          let expects =
            match b with B1 _ -> "1 argument" | B2 _ -> "2 arguments"
          in
          fun fr ->
            ignore (eval_args args fr);
            charge_call c;
            V.runtime_errorf "%s expects %s" f expects
      | None, _ ->
          let ext =
            match Hashtbl.find_opt ctx.externs f with
            | Some ext -> ext ctx
            | None -> fun _ -> V.runtime_errorf "unknown function %s" f
          in
          fun fr ->
            let argv = eval_args args fr in
            charge_call c;
            ext argv)

(* --- statements --- *)

and compile_stmt ctx sc (st : stmt) : frame -> unit =
  let c = ctx.counter in
  let ce = compile_expr ctx sc in
  match st.s with
  | Sdecl (ty, name, init) ->
      (* the initializer sees the scope before the declaration *)
      let init =
        match (init, ty) with
        | Some e, _ -> ce e
        | None, Tlist _ -> fun _ -> V.zero_of_ty ty
        | None, _ ->
            let z = V.zero_of_ty ty in
            fun _ -> z
      in
      let i = declare sc name in
      fun fr -> fr.(i) <- init fr
  | Sassign (l, e) ->
      let e = ce e and assign = compile_assign ctx sc l in
      fun fr -> assign fr (e fr)
  | Supdate (Lindex (base, i), op, e) -> (
      (* resolve the place once: index expressions must not be
         re-evaluated (they may have side effects) *)
      let e = ce e and base = compile_read ctx sc base and i = ce i in
      let op = arith_fn c op in
      let index fr n =
        let idx = V.as_int (i fr) in
        if idx < 0 || idx >= n then
          V.runtime_errorf "array update index %d out of bounds" idx;
        charge_mem c;
        idx
      in
      fun fr ->
        let v = e fr in
        charge_mem c;
        match base fr with
        | V.Vfloats fa ->
            let idx = index fr (Array.length fa) in
            fa.(idx) <- V.as_float (op (V.Vfloat fa.(idx)) v)
        | V.Varray arr ->
            let idx = index fr (Array.length arr) in
            arr.(idx) <- op arr.(idx) v
        | w -> not_array w)
  | Supdate (l, op, e) ->
      let e = ce e in
      let read = compile_read ctx sc l and assign = compile_assign ctx sc l in
      let op = arith_fn c op in
      fun fr ->
        let v = e fr in
        let old = read fr in
        assign fr (op old v)
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
  | Sforeach { fe_var; fe_coll; fe_where; fe_body } -> (
      let coll = ce fe_coll in
      let sc = push_level sc in
      let slot = declare sc fe_var in
      let where = Option.map (compile_cond ctx sc) fe_where in
      let body = compile_block ctx sc fe_body in
      fun fr ->
        let coll = coll fr in
        let yp = Domain.DLS.get yield_key in
        let run_elt v =
          charge_branch c;
          fr.(slot) <- v;
          let selected =
            match where with None -> true | Some w -> w fr
          in
          (if selected then try body fr with Continue_loop -> ());
          back_edge yp
        in
        try
          match coll with
          | V.Vrange (lo, hi) ->
              for i = lo to hi - 1 do
                run_elt (V.Vint i)
              done
          | V.Vlist l -> V.Vec.iter run_elt l
          | V.Varray a -> Array.iter run_elt a
          | V.Vfloats a -> Array.iter (fun x -> run_elt (V.Vfloat x)) a
          | v -> V.runtime_errorf "foreach over %s" (V.type_name v)
        with Break_loop -> ())
  | Sexpr e ->
      let e = ce e in
      fun fr -> ignore (e fr)
  | Sreturn None -> fun _ -> raise_notrace (Return_value V.Vunit)
  | Sreturn (Some e) ->
      let e = ce e in
      fun fr -> raise_notrace (Return_value (e fr))
  | Sbreak -> fun _ -> raise_notrace Break_loop
  | Scontinue -> fun _ -> raise_notrace Continue_loop
  | Sblock body -> compile_block ctx sc body

(* A block opens a scope; its declarations take fresh slots. *)
and compile_block ctx sc body =
  let sc = push_level sc in
  seq (List.map (compile_stmt ctx sc) body)

and compile_read ctx sc = function
  | Lvar v -> read_loc v (resolve sc v)
  | Lfield (l, f) -> field_read ctx.counter (compile_read ctx sc l) f
  | Lindex (l, i) ->
      index_read ctx.counter (compile_read ctx sc l) (compile_expr ctx sc i)

and compile_assign ctx sc l : frame -> V.t -> unit =
  let c = ctx.counter in
  match l with
  | Lvar name ->
      let write = write_loc name (resolve sc name) in
      fun fr v ->
        charge_mem c;
        write fr v
  | Lfield (l, f) -> (
      let l = compile_read ctx sc l and slot = V.site f in
      fun fr v ->
        charge_mem c;
        match l fr with
        | V.Vobject obj -> obj.V.slots.(slot obj) <- v
        | w -> V.runtime_errorf "field write .%s on %s" f (V.type_name w))
  | Lindex (l, i) -> (
      let l = compile_read ctx sc l and i = compile_expr ctx sc i in
      let index fr n =
        let idx = V.as_int (i fr) in
        if idx < 0 || idx >= n then
          V.runtime_errorf "array store index %d out of bounds" idx;
        idx
      in
      fun fr v ->
        charge_mem c;
        match l fr with
        | V.Vfloats fa ->
            let idx = index fr (Array.length fa) in
            fa.(idx) <- V.as_float v
        | V.Varray arr -> arr.(index fr (Array.length arr)) <- v
        | w -> not_array w)

(* --- globals and packets --- *)

type globals = { cells : V.t array; names : (string * int) list }

(* Evaluate the top-level declarations in order; each initializer sees
   the globals declared before it.  The cells are the initializers'
   frame. *)
let init_globals ctx =
  let sc = open_frame no_outer in
  let inits =
    List.map
      (fun g -> compile_stmt ctx sc (mk_stmt (Sdecl (g.gd_ty, g.gd_name, g.gd_init))))
      ctx.prog.globals
  in
  let cells = Array.make !(sc.size) V.Vunit in
  List.iter (fun init -> init cells) inits;
  { cells; names = !(List.hd sc.levels) }

let global_loc globals name =
  match List.assoc_opt name globals.names with
  | Some i -> Cell (globals.cells, i)
  | None -> Unbound

let global_value globals name = read_loc name (global_loc globals name) [||]

type packet_code = {
  segments : (frame -> unit) array;
  packet_scope : scopes;
}

(* Slot 0 holds the packet index; the inputs follow in order. *)
let compile_packet ctx globals ~inputs segments =
  let sc = open_frame (global_loc globals) in
  ignore (declare sc ctx.prog.pipeline.pd_var);
  List.iter (fun name -> ignore (declare sc name)) inputs;
  let segments =
    Array.of_list (List.map (fun stmts -> seq (List.map (compile_stmt ctx sc) stmts)) segments)
  in
  { segments; packet_scope = sc }

let new_frame pk ~packet =
  let fr = Array.make !(pk.packet_scope.size) V.Vunit in
  fr.(0) <- V.Vint packet;
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
  let count = compile_expr ctx (open_frame (global_loc globals)) pd.pd_count in
  let n = V.as_int (count [||]) in
  let pk =
    compile_packet ctx globals ~inputs:[] [ [ mk_stmt (Sblock pd.pd_body) ] ]
  in
  for p = 0 to n - 1 do
    run_segment pk 0 (new_frame pk ~packet:p)
  done;
  globals
