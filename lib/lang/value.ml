(* Runtime values of the PipeLang interpreter. *)

(* OCaml 5.1's [Array.make n x] (and so [Array.init], [Array.map],
   [Array.of_list], which fill from their first element) forces a minor
   collection when the array is above 256 words and [x] is young.  Under
   domains every minor collection stops all of them, so nothing on the
   per-item path builds a large array from a fresh value: it starts from
   an immediate or grows with [Array.append], which copies into the
   major heap without a collection. *)

(* Growable vector used for List<T> collections (output collections that
   foreach bodies append to). *)
module Vec = struct
  type 'a t = { mutable items : 'a array; mutable len : int }

  let create () = { items = [||]; len = 0 }

  let of_list xs =
    let items = Array.of_list xs in
    { items; len = Array.length items }

  let of_array items = { items; len = Array.length items }

  let length v = v.len

  let get v i =
    if i < 0 || i >= v.len then invalid_arg "Vec.get: index out of bounds";
    v.items.(i)

  let set v i x =
    if i < 0 || i >= v.len then invalid_arg "Vec.set: index out of bounds";
    v.items.(i) <- x

  let push v x =
    if v.len = Array.length v.items then
      (* doubling by self-append: a vector polymorphic in its element
         has no immediate fill, and [x] is usually fresh *)
      v.items <-
        (if v.len = 0 then Array.make 8 x else Array.append v.items v.items);
    v.items.(v.len) <- x;
    v.len <- v.len + 1

  let clear v = v.len <- 0

  let iter f v =
    for i = 0 to v.len - 1 do
      f v.items.(i)
    done

  let to_list v =
    let rec go i acc = if i < 0 then acc else go (i - 1) (v.items.(i) :: acc) in
    go (v.len - 1) []

  let map f v =
    let out = create () in
    iter (fun x -> push out (f x)) v;
    out
end

type t =
  | Vunit
  | Vnull
  | Vint of int
  | Vfloat of float
  | Vbool of bool
  | Vstring of string
  | Varray of t array
  | Vlist of t Vec.t
  | Vobject of obj
  | Vrange of int * int (* [lo : hi), a 1-d rectdomain *)

and obj = { cls : Ast.class_decl; slots : t array }

(* [Array.init] that starts from the immediate [Vnull] (see the top of
   this file); [f] runs in index order. *)
let init_array n f =
  let a = Array.make n Vnull in
  for i = 0 to n - 1 do
    a.(i) <- f i
  done;
  a

let type_name = function
  | Vunit -> "void"
  | Vnull -> "null"
  | Vint _ -> "int"
  | Vfloat _ -> "float"
  | Vbool _ -> "bool"
  | Vstring _ -> "String"
  | Varray _ -> "array"
  | Vlist _ -> "List"
  | Vobject o -> o.cls.Ast.cd_name
  | Vrange _ -> "Rectdomain"

exception Runtime_error of string

let runtime_errorf fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

let as_int = function
  | Vint n -> n
  | v -> runtime_errorf "expected int, got %s" (type_name v)

let as_float = function
  | Vfloat f -> f
  | Vint n -> float_of_int n (* implicit widening *)
  | v -> runtime_errorf "expected float, got %s" (type_name v)

let as_bool = function
  | Vbool b -> b
  | v -> runtime_errorf "expected bool, got %s" (type_name v)

let as_string = function
  | Vstring s -> s
  | v -> runtime_errorf "expected String, got %s" (type_name v)

let as_array = function
  | Varray a -> a
  | v -> runtime_errorf "expected array, got %s" (type_name v)

let as_list = function
  | Vlist l -> l
  | v -> runtime_errorf "expected List, got %s" (type_name v)

let as_object = function
  | Vobject o -> o
  | v -> runtime_errorf "expected object, got %s" (type_name v)

let slot (cd : Ast.class_decl) name =
  let rec go i = function
    | [] -> runtime_errorf "object %s has no field %s" cd.cd_name name
    | (_, f) :: rest -> if String.equal f name then i else go (i + 1) rest
  in
  go 0 cd.cd_fields

let field obj name = obj.slots.(slot obj.cls name)
let set_field obj name v = obj.slots.(slot obj.cls name) <- v

(* The pair is replaced whole on a miss, so a site shared between
   domains never pairs one class with another class's slot. *)
let site name =
  let none =
    { Ast.cd_name = ""; cd_reduc = false; cd_fields = []; cd_methods = [];
      cd_loc = Srcloc.dummy }
  in
  let cache = ref (none, -1) in
  fun obj ->
    let cd, i = !cache in
    if obj.cls == cd then i
    else
      let i = slot obj.cls name in
      cache := (obj.cls, i);
      i

(* Default (zero) value for a declared type. *)
let zero_of_ty (ty : Ast.ty) =
  match ty with
  | Ast.Tint -> Vint 0
  | Ast.Tfloat -> Vfloat 0.0
  | Ast.Tbool -> Vbool false
  | Ast.Tstring -> Vstring ""
  | Ast.Tvoid -> Vunit
  | Ast.Tarray _ -> Vnull
  | Ast.Tlist _ -> Vlist (Vec.create ())
  | Ast.Trectdomain -> Vrange (0, 0)
  | Ast.Tclass _ -> Vnull

let rec fill_zeros slots i = function
  | [] -> ()
  | (ty, _) :: rest ->
      slots.(i) <- zero_of_ty ty;
      fill_zeros slots (i + 1) rest

let make_object (cls : Ast.class_decl) =
  let slots = Array.make (List.length cls.cd_fields) Vnull in
  fill_zeros slots 0 cls.cd_fields;
  { cls; slots }

(* Structural deep copy.  Used when a value crosses a filter boundary in
   value form (tests and the reference evaluator); the production path
   serializes through byte buffers instead. *)
let rec deep_copy = function
  | (Vunit | Vnull | Vint _ | Vfloat _ | Vbool _ | Vstring _ | Vrange _) as v
    ->
      v
  | Varray a -> Varray (init_array (Array.length a) (fun i -> deep_copy a.(i)))
  | Vlist l -> Vlist (Vec.map deep_copy l)
  | Vobject o ->
      Vobject
        { o with slots = init_array (Array.length o.slots) (fun i -> deep_copy o.slots.(i)) }

(* Structural equality that treats lists as multisets is deliberately NOT
   provided here; [equal] is plain structural equality in order. *)
let rec equal a b =
  match (a, b) with
  | Vunit, Vunit | Vnull, Vnull -> true
  | Vint x, Vint y -> x = y
  | Vfloat x, Vfloat y -> x = y
  | Vbool x, Vbool y -> x = y
  | Vstring x, Vstring y -> String.equal x y
  | Vrange (a1, b1), Vrange (a2, b2) -> a1 = a2 && b1 = b2
  | Varray x, Varray y ->
      Array.length x = Array.length y
      && (let ok = ref true in
          Array.iteri (fun i v -> if not (equal v y.(i)) then ok := false) x;
          !ok)
  | Vlist x, Vlist y ->
      Vec.length x = Vec.length y
      && (let ok = ref true in
          for i = 0 to Vec.length x - 1 do
            if not (equal (Vec.get x i) (Vec.get y i)) then ok := false
          done;
          !ok)
  | Vobject x, Vobject y ->
      (* by names: the objects may come from two parses of one program *)
      String.equal x.cls.cd_name y.cls.cd_name
      && List.equal
           (fun (_, f) (_, g) -> String.equal f g)
           x.cls.cd_fields y.cls.cd_fields
      && equal (Varray x.slots) (Varray y.slots)
  | _ -> false

let rec pp ppf = function
  | Vunit -> Fmt.string ppf "()"
  | Vnull -> Fmt.string ppf "null"
  | Vint n -> Fmt.int ppf n
  | Vfloat f -> Fmt.float ppf f
  | Vbool b -> Fmt.bool ppf b
  | Vstring s -> Fmt.pf ppf "%S" s
  | Vrange (lo, hi) -> Fmt.pf ppf "[%d : %d]" lo hi
  | Varray a ->
      Fmt.pf ppf "[|%a|]" Fmt.(array ~sep:(any "; ") pp) a
  | Vlist l ->
      Fmt.pf ppf "List(%d)[%a]" (Vec.length l)
        Fmt.(list ~sep:(any "; ") pp)
        (Vec.to_list l)
  | Vobject o ->
      let fields =
        List.mapi (fun i (_, name) -> (name, o.slots.(i))) o.cls.cd_fields
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      Fmt.pf ppf "%s{%a}" o.cls.cd_name
        Fmt.(list ~sep:(any ", ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%a" k pp v))
        fields

let to_string v = Fmt.str "%a" pp v
