let make ~canonical ~seed ~budget ~faults =
  Printf.sprintf "%s;seed=%d;budget=%d;faults=%s" canonical seed budget
    (Gpu_sim.Faults.key faults)

let journal_path ~dir identity =
  Filename.concat dir (Verify.Audit.content_key identity ^ ".journal")
