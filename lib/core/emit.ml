(* Human-readable rendering of the generated filters.

   The paper's compiler emits C++ filter code for DataCutter; ours builds
   closures, so this module renders what each generated filter does — the
   unpack loops (Figure 4's instance-wise and field-wise shapes), the
   code segments placed on the filter, the pack loops, and the
   end-of-stream reduction behaviour — for inspection and for golden
   tests. *)

open Lang

let emit_group buf ~verb c (g : Packing.group) =
  match g.Packing.g_layout with
  | `Instance ->
      Buffer.add_string buf
        (Printf.sprintf "    for i in 0 .. count(%s) - 1:   // instance-wise\n" c);
      List.iter
        (fun fs ->
          Buffer.add_string buf
            (Printf.sprintf "      %s %s[i].%s : %s\n" verb c fs.Packing.fs_name
               (Ast.ty_to_string fs.Packing.fs_ty)))
        g.Packing.g_fields
  | `Fieldwise ->
      List.iter
        (fun fs ->
          Buffer.add_string buf
            (Printf.sprintf
               "    for i in 0 .. count(%s) - 1:   // field-wise column\n\
               \      %s %s[i].%s : %s\n"
               c verb c fs.Packing.fs_name
               (Ast.ty_to_string fs.Packing.fs_ty)))
        g.Packing.g_fields

let emit_layout buf ~dir (layout : Packing.layout) =
  let verb = match dir with `In -> "read" | `Out -> "write" in
  if layout = [] then
    Buffer.add_string buf "    (nothing: end of per-packet stream)\n"
  else
    List.iter
      (fun entry ->
        match entry with
        | Packing.Escalar (v, ty) ->
            Buffer.add_string buf
              (Printf.sprintf "    %s %s : %s\n" verb v (Ast.ty_to_string ty))
        | Packing.Eobj_field (v, _, f, ty) ->
            Buffer.add_string buf
              (Printf.sprintf "    %s %s.%s : %s%s\n" verb v f (Ast.ty_to_string ty)
                 (if Packing.is_scalar ty then "" else " (generic codec)"))
        | Packing.Earray (a, s, ty) ->
            Buffer.add_string buf
              (Printf.sprintf "    %s %s%s : %s[]\n" verb a (Section.to_string s)
                 (Ast.ty_to_string ty))
        | Packing.Ecoll (c, _, groups) ->
            Buffer.add_string buf (Printf.sprintf "    %s count(%s)\n" verb c);
            List.iter (emit_group buf ~verb c) groups)
      layout

let emit_filter buf (plan : Codegen.plan) u =
  let module SS = Set.Make (String) in
  let segs = Codegen.segments_of_unit plan u in
  let role =
    if u = 1 then "source (reads the repository)"
    else if u = plan.Codegen.m then "sink (views the results)"
    else "inner"
  in
  Buffer.add_string buf (Printf.sprintf "filter C%d  -- %s\n" u role);
  let reduc = Codegen.reduc_updated plan u in
  if u > 1 then begin
    Buffer.add_string buf "  unpack input buffer:\n";
    emit_layout buf ~dir:`In plan.Codegen.layouts.(u - 1)
  end;
  if segs = [] then
    Buffer.add_string buf "  process: forward the buffer unchanged\n"
  else begin
    Buffer.add_string buf "  process unit-of-work (packet p):\n";
    List.iter
      (fun (s : Boundary.segment) ->
        Buffer.add_string buf
          (Printf.sprintf "    -- %s\n" s.Boundary.seg_label);
        List.iter
          (fun st ->
            let text = Pretty.stmt_to_string st in
            String.split_on_char '\n' text
            |> List.iter (fun line ->
                   Buffer.add_string buf ("    " ^ line ^ "\n")))
          s.Boundary.seg_stmts)
      segs
  end;
  if u < plan.Codegen.m then begin
    Buffer.add_string buf "  pack output buffer:\n";
    emit_layout buf ~dir:`Out plan.Codegen.layouts.(u)
  end;
  if not (SS.is_empty reduc) then
    Buffer.add_string buf
      (Printf.sprintf
         "  at end of stream: ship partial reduction state {%s} downstream\n"
         (String.concat ", " (SS.elements reduc)));
  if u = plan.Codegen.m then
    Buffer.add_string buf
      "  at end of stream: merge every incoming partial into the final result\n"

(* Render every generated filter of the plan. *)
let emit_plan (plan : Codegen.plan) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "-- generated pipeline: %d filters over %d segments --\n"
       plan.Codegen.m
       (Reqcomm.segment_count plan.Codegen.rc));
  for u = 1 to plan.Codegen.m do
    if u > 1 then Buffer.add_string buf "\n";
    emit_filter buf plan u
  done;
  Buffer.contents buf
