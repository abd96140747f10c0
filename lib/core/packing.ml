(* Buffer packing (§5).

   Decides how the values in a ReqComm set are arranged in the stream
   buffer between two filters and performs the actual byte-level
   serialization.

   For the fields of a collection's elements the paper gives two layouts:
   - instance-wise: <count, t1.x, t1.y, ..., tcount.x, tcount.y>
   - field-wise:    <count, t1.x .. tcount.x, t1.y .. tcount.y>

   Fields first consumed by the receiving filter are grouped together and
   packed instance-wise; fields first consumed by a later filter are
   packed field-wise (one contiguous column per group), sorted by the
   order in which they are first read.  A contiguous column that the
   receiving filter only forwards can be copied to the output buffer
   wholesale, which is where the field-wise layout wins.

   A layout only arranges values; each value's bytes are those of the
   one typed codec below ([pack_value_generic]). *)

open Lang
module V = Value

(* Wire size of a fixed-size type; [None] for a string (length-prefixed)
   and every structured type. *)
let fixed_size : Ast.ty -> int option = function
  | Ast.Tint | Ast.Tfloat -> Some 8
  | Ast.Tbool -> Some 1
  | Ast.Trectdomain -> Some 16
  | _ -> None

(* The types a layout packs element by element: collection fields,
   array elements and top-level variables. *)
let is_scalar ty = ty = Ast.Tstring || fixed_size ty <> None

type field_spec = { fs_name : string; fs_ty : Ast.ty }

(* A group of element fields packed together.  [Instance] interleaves the
   group's fields per element; [Fieldwise] stores one contiguous column
   per field. *)
type group = {
  g_layout : [ `Instance | `Fieldwise ];
  g_fields : field_spec list;
  g_first_consumer : int option; (* filter index that first reads them *)
}

type entry =
  | Escalar of string * Ast.ty             (* top-level variable *)
  | Eobj_field of string * string * string * Ast.ty
      (* object var, its class, field name, field type (scalar or
         structured) *)
  | Earray of string * Section.t * Ast.ty  (* array (or section), element type *)
  | Ecoll of string * string option * group list
      (* collection var, element class (None = primitive elements),
         ordered field groups *)

type layout = entry list

(* ------------------------------------------------------------------ *)
(* Layout construction                                                  *)
(* ------------------------------------------------------------------ *)

(* Layout policy: [`Auto] is the paper's rule (§5); the other two force a
   single scheme everywhere and exist for the packing ablation. *)
type mode = [ `Auto | `All_instance | `All_fieldwise ]

(* Build the layout for the boundary entering segment [cut], given the
   decomposition via [filter_of_seg] (which filter index each segment
   belongs to).  [rc] supplies the ReqComm set and first-consumer
   queries. *)
let layout_for_cut ?(mode : mode = `Auto) (tyenv : Tyenv.t) (rc : Reqcomm.t)
    ~(cut : int) ~(filter_of_seg : int -> int) : layout =
  let prog = rc.Reqcomm.prog in
  let items = Varset.items (Reqcomm.reqcomm_into rc cut) in
  let receiving_filter = filter_of_seg cut in
  (* group items by base variable *)
  let scalars = ref [] in
  let obj_fields = Hashtbl.create 8 in
  let colls = Hashtbl.create 8 in
  let arrays = ref [] in
  List.iter
    (fun item ->
      match item with
      | Varset.Var v -> (
          match Tyenv.find tyenv v with
          | Some ty when is_scalar ty -> scalars := (v, ty) :: !scalars
          | Some _ -> () (* object/coll vars appear as field items *)
          | None -> scalars := (v, Ast.Tint) :: !scalars)
      | Varset.Coll c -> if not (Hashtbl.mem colls c) then Hashtbl.replace colls c []
      | Varset.ElemField (c, f) -> (
          match Tyenv.find tyenv c with
          | Some (Ast.Tlist _) ->
              let cur = try Hashtbl.find colls c with Not_found -> [] in
              Hashtbl.replace colls c (f :: cur)
          | Some (Ast.Tclass cls) ->
              let cur = try Hashtbl.find obj_fields (c, cls) with Not_found -> [] in
              Hashtbl.replace obj_fields (c, cls) (f :: cur)
          | _ -> ())
      | Varset.Arr (a, s) -> (
          match Tyenv.find tyenv a with
          | Some (Ast.Tarray elt) when is_scalar elt ->
              arrays := (a, s, elt) :: !arrays
          | _ -> ()))
    items;
  let scalar_entries =
    List.sort compare !scalars |> List.map (fun (v, ty) -> Escalar (v, ty))
  in
  (* Scalar fields first, then structured ones, each by (var, class,
     field). *)
  let obj_entries =
    Hashtbl.fold
      (fun (v, cls) fields acc ->
        List.fold_left
          (fun acc f ->
            match Tyenv.field_ty prog cls f with
            | Some fty -> (not (is_scalar fty), v, cls, f, fty) :: acc
            | None -> acc)
          acc (List.sort_uniq compare fields))
      obj_fields []
    |> List.sort compare
    |> List.map (fun (_, v, cls, f, fty) -> Eobj_field (v, cls, f, fty))
  in
  let array_entries =
    List.sort compare !arrays |> List.map (fun (a, s, ty) -> Earray (a, s, ty))
  in
  let coll_entries =
    Hashtbl.fold
      (fun c fields acc ->
        let elem_class, field_ty_of =
          match Tyenv.find tyenv c with
          | Some (Ast.Tlist (Ast.Tclass cls)) ->
              (Some cls, fun f -> Tyenv.field_ty prog cls f)
          | Some (Ast.Tlist elt) -> (None, fun _ -> Some elt)
          | _ -> (None, fun _ -> None)
        in
        let fields =
          match (elem_class, fields) with
          | None, [] -> [ Gencons.prim_field ] (* primitive collection *)
          | _ -> List.sort_uniq compare fields
        in
        let specs =
          List.filter_map
            (fun f ->
              match field_ty_of f with
              | Some ty when is_scalar ty -> Some ({ fs_name = f; fs_ty = ty }, f)
              | Some _ -> None
              | None ->
                  if f = Gencons.prim_field then
                    Some ({ fs_name = f; fs_ty = Ast.Tfloat }, f)
                  else None)
            fields
        in
        (* first consumer (as a filter index) of each field *)
        let consumer_of f =
          match Reqcomm.first_consumer rc cut (Varset.ElemField (c, f)) with
          | Some seg -> Some (filter_of_seg seg)
          | None -> None
        in
        let with_consumer =
          List.map (fun (spec, f) -> (spec, consumer_of f)) specs
        in
        (* partition into groups by first-consuming filter *)
        let module IM = Map.Make (struct
          type t = int option

          let compare a b =
            match (a, b) with
            | None, None -> 0
            | None, Some _ -> 1 (* never-consumed last *)
            | Some _, None -> -1
            | Some x, Some y -> compare x y
        end) in
        let grouped =
          List.fold_left
            (fun m (spec, cons) ->
              IM.update cons
                (function None -> Some [ spec ] | Some l -> Some (spec :: l))
                m)
            IM.empty with_consumer
        in
        let groups =
          match mode with
          | `Auto ->
              IM.bindings grouped
              |> List.map (fun (cons, specs) ->
                     {
                       g_layout =
                         (if cons = Some receiving_filter then `Instance
                          else `Fieldwise);
                       g_fields = List.sort compare specs;
                       g_first_consumer = cons;
                     })
          | `All_instance ->
              (* every field interleaved in one group *)
              [
                {
                  g_layout = `Instance;
                  g_fields = List.sort compare (List.map fst specs);
                  g_first_consumer = None;
                };
              ]
          | `All_fieldwise ->
              (* one contiguous column per field *)
              List.map
                (fun (spec, _) ->
                  {
                    g_layout = `Fieldwise;
                    g_fields = [ spec ];
                    g_first_consumer = None;
                  })
                specs
        in
        let groups = List.filter (fun g -> g.g_fields <> []) groups in
        Ecoll (c, elem_class, groups) :: acc)
      colls []
    |> List.sort compare
  in
  scalar_entries @ obj_entries @ array_entries @ coll_entries

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

(* The one value codec, by declared type, over the [Wirefmt] byte codec:
   scalars directly, arrays and lists length-prefixed, objects
   field-by-field in declaration order with a presence byte (null
   support).  Every layout entry and every reduction-state payload
   ([Objpack]) writes its values with it. *)
let rec pack_value_generic buf prog (ty : Ast.ty) (v : V.t) =
  match ty with
  | Ast.Tint -> Wirefmt.buf_add_int buf (V.as_int v)
  | Ast.Tfloat -> Wirefmt.buf_add_float buf (V.as_float v)
  | Ast.Tbool -> Wirefmt.buf_add_bool buf (V.as_bool v)
  | Ast.Tstring -> Wirefmt.buf_add_string buf (V.as_string v)
  | Ast.Tvoid -> ()
  | Ast.Trectdomain -> (
      match v with
      | V.Vrange (lo, hi) ->
          Wirefmt.buf_add_int buf lo;
          Wirefmt.buf_add_int buf hi
      | _ -> V.runtime_errorf "pack: expected Rectdomain, got %s" (V.type_name v))
  | Ast.Tarray elt -> (
      match v with
      | V.Vnull -> Wirefmt.buf_add_int buf (-1)
      | V.Varray a ->
          Wirefmt.buf_add_int buf (Array.length a);
          Array.iter (fun x -> pack_value_generic buf prog elt x) a
      | V.Vfloats a when elt = Ast.Tfloat ->
          Wirefmt.buf_add_int buf (Array.length a);
          Array.iter (Wirefmt.buf_add_float buf) a
      | V.Vfloats _ -> pack_value_generic buf prog ty (V.Varray (V.as_array v))
      | _ -> V.runtime_errorf "pack: expected array, got %s" (V.type_name v))
  | Ast.Tlist elt ->
      let l = V.as_list v in
      Wirefmt.buf_add_int buf (V.Vec.length l);
      V.Vec.iter (fun x -> pack_value_generic buf prog elt x) l
  | Ast.Tclass cls -> (
      match v with
      | V.Vnull -> Wirefmt.buf_add_bool buf false
      | V.Vobject obj ->
          Wirefmt.buf_add_bool buf true;
          V.iter_fields obj.V.cls (fun fty _ -> function
            | V.Flat k -> Wirefmt.buf_add_float buf obj.V.floats.(k)
            | V.Boxed i -> pack_value_generic buf prog fty obj.V.slots.(i))
      | _ -> V.runtime_errorf "pack: expected %s object" cls)

let unpack_class prog cls =
  match Ast.find_class prog cls with
  | Some cd -> cd
  | None -> V.runtime_errorf "unpack: unknown class %s" cls

let rec unpack_value_generic (r : Wirefmt.reader) prog (ty : Ast.ty) : V.t =
  match ty with
  | Ast.Tint -> V.Vint (Wirefmt.read_int r)
  | Ast.Tfloat -> V.Vfloat (Wirefmt.read_float r)
  | Ast.Tbool -> V.Vbool (Wirefmt.read_bool r)
  | Ast.Tstring -> V.Vstring (Wirefmt.read_string r)
  | Ast.Tvoid -> V.Vunit
  | Ast.Trectdomain ->
      let lo = Wirefmt.read_int r in
      let hi = Wirefmt.read_int r in
      V.Vrange (lo, hi)
  | Ast.Tarray elt ->
      let n = Wirefmt.read_int r in
      if n < 0 then V.Vnull else unpack_array r prog elt ~lo:0 n
  | Ast.Tlist elt ->
      let n = Wirefmt.read_int r in
      let vec = V.Vec.create () in
      for _ = 1 to n do
        V.Vec.push vec (unpack_value_generic r prog elt)
      done;
      V.Vlist vec
  | Ast.Tclass cls -> (
      if not (Wirefmt.read_bool r) then V.Vnull
      else
        let cd = unpack_class prog cls in
        let obj = V.make_object cd in
        V.iter_fields cd (fun fty _ -> function
          | V.Flat k -> obj.V.floats.(k) <- Wirefmt.read_float r
          | V.Boxed i -> obj.V.slots.(i) <- unpack_value_generic r prog fty);
        V.Vobject obj)

(* An array of [lo] zeros and then [n] elements read from [r]; a [float]
   array in the flat form. *)
and unpack_array r prog elt ~lo n =
  if elt = Ast.Tfloat then begin
    let a = Array.make (lo + n) 0.0 in
    for i = lo to lo + n - 1 do
      a.(i) <- Wirefmt.read_float r
    done;
    V.Vfloats a
  end
  else
    let zero = V.zero_of_ty elt in
    V.Varray
      (V.init_array (lo + n) (fun i ->
           if i < lo then zero else unpack_value_generic r prog elt))

let rec value_size_generic prog (ty : Ast.ty) (v : V.t) =
  match ty with
  | Ast.Tint | Ast.Tfloat -> 8
  | Ast.Tbool -> 1
  | Ast.Tstring -> 8 + String.length (V.as_string v)
  | Ast.Tvoid -> 0
  | Ast.Trectdomain -> 16
  | Ast.Tarray elt -> (
      match v with
      | V.Vnull -> 8
      | V.Varray a ->
          8 + Array.fold_left (fun s x -> s + value_size_generic prog elt x) 0 a
      | V.Vfloats a -> 8 + (8 * Array.length a)
      | _ -> 8)
  | Ast.Tlist elt ->
      let l = V.as_list v in
      let s = ref 8 in
      V.Vec.iter (fun x -> s := !s + value_size_generic prog elt x) l;
      !s
  | Ast.Tclass _ -> (
      match v with
      | V.Vobject obj ->
          let s = ref 1 in
          V.iter_fields obj.V.cls (fun fty _ -> function
            | V.Flat _ -> s := !s + 8
            | V.Boxed i -> s := !s + value_size_generic prog fty obj.V.slots.(i));
          !s
      | _ -> 1)

(* Wrap an environment lookup so the "runtime:<name>" symbols produced
   by the analysis for [runtime_define] bounds resolve against the
   run-time definition table. *)
let runtime_aware_lookup ~(runtime_def : string -> int option)
    ~(lookup : string -> V.t) name =
  let prefix = "runtime:" in
  let plen = String.length prefix in
  if String.length name > plen && String.sub name 0 plen = prefix then
    let key = String.sub name plen (String.length name - plen) in
    match runtime_def key with
    | Some v -> V.Vint v
    | None -> V.runtime_errorf "runtime_define %s is not set" key
  else lookup name

let entry_var = function
  | Escalar (v, _)
  | Eobj_field (v, _, _, _)
  | Earray (v, _, _)
  | Ecoll (v, _, _) ->
      v

let dedup names =
  List.rev
    (List.fold_left
       (fun acc v -> if List.mem v acc then acc else v :: acc)
       [] names)

let bound_names layout = dedup (List.map entry_var layout)

let lookup_names layout =
  let sym = function
    | Section.Bconst _ -> []
    | Section.Bsym v | Section.Bsym_off (v, _) -> [ v ]
  in
  dedup
    (List.concat_map
       (function
         | Earray (a, Section.Range (lo, hi), _) -> (a :: sym lo) @ sym hi
         | e -> [ entry_var e ])
       layout)

(* Resolve a section against the runtime environment (symbolic bounds are
   looked up as integer variables). *)
let resolve_section lookup (arr : V.t) (s : Section.t) =
  let resolve_bound = function
    | Section.Bconst n -> n
    | Section.Bsym v -> V.as_int (lookup v)
    | Section.Bsym_off (v, k) -> V.as_int (lookup v) + k
  in
  match s with
  | Section.Whole -> (0, V.array_length arr)
  | Section.Range (lo, hi) ->
      let lo = max 0 (resolve_bound lo) in
      let hi = min (V.array_length arr) (resolve_bound hi) in
      (lo, max lo hi)

let obj_field lookup v f = V.field (V.as_object (lookup v)) f

let is_field cls (fs : field_spec) = cls <> None && fs.fs_name <> Gencons.prim_field

(* The place ([Value.slot]) of field [fs] in the elements of a
   collection of class [cls], when the program declares the class. *)
let elt_slot prog cls fs =
  if not (is_field cls fs) then None
  else
    Option.map
      (fun cd -> V.slot cd fs.fs_name)
      (Ast.find_class prog (Option.get cls))

(* One field of a collection's elements, resolved once for all of them,
   or the element itself in a collection of primitives.  A layout may
   name a class the program does not declare: each element is then read
   by name, and [unpack] rejects the class. *)
let elt_field prog cls fs =
  match elt_slot prog cls fs with
  | Some p -> fun elt -> V.get (V.as_object elt) p
  | None when is_field cls fs -> fun elt -> V.field (V.as_object elt) fs.fs_name
  | None -> Fun.id

(* [elt_field], written straight into [buf]: a [float] field from the
   element's flat part. *)
let elt_packer prog cls fs =
  match elt_slot prog cls fs with
  | Some (V.Flat k) -> fun buf elt -> Wirefmt.buf_add_float buf (V.as_object elt).V.floats.(k)
  | Some (V.Boxed i) ->
      fun buf elt -> pack_value_generic buf prog fs.fs_ty (V.as_object elt).V.slots.(i)
  | None ->
      let get = elt_field prog cls fs in
      fun buf elt -> pack_value_generic buf prog fs.fs_ty (get elt)

(* Pack the values described by [layout] from [lookup] into bytes. *)
let pack (prog : Ast.program) (layout : layout) ~(lookup : string -> V.t) :
    Bytes.t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun entry ->
      match entry with
      | Escalar (v, ty) -> pack_value_generic buf prog ty (lookup v)
      | Eobj_field (v, _, f, ty) ->
          pack_value_generic buf prog ty (obj_field lookup v f)
      | Earray (a, s, ty) ->
          let arr = lookup a in
          let lo, hi = resolve_section lookup arr s in
          Wirefmt.buf_add_int buf lo;
          Wirefmt.buf_add_int buf (hi - lo);
          for i = lo to hi - 1 do
            pack_value_generic buf prog ty (V.array_get arr i)
          done
      | Ecoll (c, cls, groups) ->
          let l = V.as_list (lookup c) in
          let n = V.Vec.length l in
          Wirefmt.buf_add_int buf n;
          List.iter
            (fun g ->
              let fields = List.map (elt_packer prog cls) g.g_fields in
              match g.g_layout with
              | `Instance ->
                  for i = 0 to n - 1 do
                    let elt = V.Vec.get l i in
                    List.iter (fun pack -> pack buf elt) fields
                  done
              | `Fieldwise ->
                  List.iter
                    (fun pack ->
                      for i = 0 to n - 1 do
                        pack buf (V.Vec.get l i)
                      done)
                    fields)
            groups)
    layout;
  Buffer.to_bytes buf

(* Find or create the object value for variable [v] while unpacking;
   objects are rebuilt from their class declaration so every field exists
   (non-communicated ones keep their zero values) and methods resolve. *)
let obj_slot out add v cls prog =
  match List.assoc_opt v !out with
  | Some (V.Vobject o) -> o
  | _ ->
      let o = V.make_object (unpack_class prog cls) in
      add v (V.Vobject o);
      o

(* Unpack a buffer produced by [pack] with the same layout.  Collection
   elements are rebuilt as objects of the element class with only the
   packed fields meaningful (others take their zero values); arrays are
   rebuilt at [lo + length] size. *)
let unpack (prog : Ast.program) (layout : layout) (data : Bytes.t) :
    (string * V.t) list =
  let r = Wirefmt.reader_of data in
  let out = ref [] in
  let add name v = out := (name, v) :: !out in
  List.iter
    (fun entry ->
      match entry with
      | Escalar (v, ty) -> add v (unpack_value_generic r prog ty)
      | Eobj_field (v, cls, f, ty) ->
          let value = unpack_value_generic r prog ty in
          V.set_field (obj_slot out add v cls prog) f value
      | Earray (a, _, ty) ->
          let lo = Wirefmt.read_int r in
          let len = Wirefmt.read_int r in
          add a (unpack_array r prog ty ~lo len)
      | Ecoll (c, elem_class, groups) ->
          let n = Wirefmt.read_int r in
          let make = Option.map (fun cls -> V.maker (unpack_class prog cls)) elem_class in
          let elems =
            V.Vec.init n (fun _ ->
                match make with
                | Some make -> V.Vobject (make ())
                | None -> V.Vfloat 0.0)
          in
          (* [read i] reads field [fs] of element [i], a [float] one
             straight into the element's flat part *)
          let reader (fs : field_spec) =
            let obj i = V.as_object (V.Vec.get elems i) in
            match elt_slot prog elem_class fs with
            | Some (V.Flat k) -> fun i -> (obj i).V.floats.(k) <- Wirefmt.read_float r
            | Some (V.Boxed j) ->
                fun i -> (obj i).V.slots.(j) <- unpack_value_generic r prog fs.fs_ty
            | None -> fun i -> V.Vec.set elems i (unpack_value_generic r prog fs.fs_ty)
          in
          List.iter
            (fun g ->
              let fields = List.map reader g.g_fields in
              match g.g_layout with
              | `Instance ->
                  for i = 0 to n - 1 do
                    List.iter (fun read -> read i) fields
                  done
              | `Fieldwise ->
                  List.iter
                    (fun read ->
                      for i = 0 to n - 1 do
                        read i
                      done)
                    fields)
            groups;
          add c (V.Vlist elems))
    layout;
  List.rev !out

(* Size in bytes of the buffer [pack] would produce, without building it.
   Used by the profiler to measure per-boundary volumes. *)
let packed_size (prog : Ast.program) (layout : layout)
    ~(lookup : string -> V.t) : int =
  (* [n] values of type [ty], the i-th read by [get i]: O(1) for a
     fixed-size type. *)
  let values_size ty n get =
    match fixed_size ty with
    | Some w -> n * w
    | None ->
        let s = ref 0 in
        for i = 0 to n - 1 do
          s := !s + value_size_generic prog ty (get i)
        done;
        !s
  in
  List.fold_left
    (fun total entry ->
      total
      +
      match entry with
      | Escalar (v, ty) -> value_size_generic prog ty (lookup v)
      | Eobj_field (v, _, f, ty) -> value_size_generic prog ty (obj_field lookup v f)
      | Earray (a, s, ty) ->
          let arr = lookup a in
          let lo, hi = resolve_section lookup arr s in
          16 + values_size ty (hi - lo) (fun i -> V.array_get arr (lo + i))
      | Ecoll (c, cls, groups) ->
          let l = V.as_list (lookup c) in
          let n = V.Vec.length l in
          List.fold_left
            (fun total g ->
              List.fold_left
                (fun total fs ->
                  let get = elt_field prog cls fs in
                  total + values_size fs.fs_ty n (fun i -> get (V.Vec.get l i)))
                total g.g_fields)
            8 groups)
    0 layout

(* Operation cost charged for packing/unpacking a buffer with this
   layout: roughly two memory operations per packed value, with
   contiguous field-wise columns that the receiving filter does not
   consume charged as bulk copies (1/8 op per value).  [consumed_here]
   says whether the receiving filter reads a given collection field. *)
let marshal_ops (prog : Ast.program) (layout : layout)
    ~(lookup : string -> V.t) ~(consumed_here : string -> string -> bool) :
    int =
  let ops = ref 0 in
  List.iter
    (fun entry ->
      match entry with
      | Escalar _ -> ops := !ops + 2
      | Eobj_field (_, _, _, ty) when is_scalar ty -> ops := !ops + 2
      | Eobj_field (v, _, f, ty) ->
          ops := !ops + (value_size_generic prog ty (obj_field lookup v f) / 4)
      | Earray (a, s, _) ->
          let lo, hi = resolve_section lookup (lookup a) s in
          ops := !ops + (2 * (hi - lo))
      | Ecoll (c, _, groups) ->
          let l = V.as_list (lookup c) in
          let n = V.Vec.length l in
          List.iter
            (fun g ->
              let group_consumed =
                List.exists (fun fs -> consumed_here c fs.fs_name) g.g_fields
              in
              match (g.g_layout, group_consumed) with
              | `Fieldwise, false ->
                  (* forwarded column: bulk copy *)
                  ops := !ops + (n * List.length g.g_fields / 8) + 1
              | _ ->
                  ops := !ops + (2 * n * List.length g.g_fields))
            groups)
    layout;
  !ops

let pp_group ppf g =
  let layout = match g.g_layout with `Instance -> "inst" | `Fieldwise -> "field" in
  Fmt.pf ppf "%s(%a)" layout
    Fmt.(list ~sep:(any ",") (fun ppf fs -> Fmt.string ppf fs.fs_name))
    g.g_fields

let pp_entry ppf = function
  | Escalar (v, _) -> Fmt.pf ppf "scalar %s" v
  | Eobj_field (v, _, f, ty) when is_scalar ty -> Fmt.pf ppf "obj %s.%s" v f
  | Eobj_field (v, _, f, ty) -> Fmt.pf ppf "obj %s.%s:%s" v f (Ast.ty_to_string ty)
  | Earray (a, s, _) -> Fmt.pf ppf "array %s%s" a (Section.to_string s)
  | Ecoll (c, _, groups) ->
      Fmt.pf ppf "coll %s<%a>" c Fmt.(list ~sep:(any "; ") pp_group) groups

let pp ppf (l : layout) = Fmt.(list ~sep:(any "@\n") pp_entry) ppf l
