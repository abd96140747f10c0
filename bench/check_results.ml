(* Validate bench result files: each file named on the command line must
   parse and have the shape {!Schema} describes — a "host" and, for
   every measured cell, its median's IQR and repetition count.  The
   @bench-results rule runs it over the committed bench/results/, so a
   stale single-shot file cannot be committed.  Reports every problem
   of every file and exits 1 if there was any. *)

let () =
  let failed = ref false in
  Array.iteri
    (fun i path ->
      if i > 0 then begin
        let problems =
          match Obs.Json.parse (In_channel.with_open_text path In_channel.input_all) with
          | doc -> Schema.problems doc
          | exception (Obs.Json.Parse_error e | Sys_error e) -> [ e ]
        in
        List.iter (fun p -> Fmt.epr "%s: %s@." path p) problems;
        if problems <> [] then failed := true
      end)
    Sys.argv;
  if !failed then exit 1
