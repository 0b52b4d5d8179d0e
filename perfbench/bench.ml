(* Command line of the benchmark:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   runs benchmark seed [Fingerprints.select N] and prints a human-readable
   report and, as its last line, one JSON object with the keys correct,
   attempted, failed and metrics. [--trace 1]
   writes the recorded spans to perfbench/_out/. [--pin FIRST LAST
   [WORKLOAD...]] prints pinned-fingerprint table rows for seeds
   FIRST..LAST of the named (default: every) workload instead. *)

open Atomrep_perfbench

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       bench.exe --pin FIRST LAST [WORKLOAD...]";
  exit 2

let pin first last workloads =
  List.iter
    (fun w ->
      for seed = first to last do
        let jobs = Workloads.setup w (Workloads.bench_size w) ~seed in
        let t, _ = Workloads.run_pass jobs in
        if t.Workloads.failed <> 0 then
          Printf.eprintf "%s seed %d: %d failed\n%!" (Workloads.name w) seed t.failed;
        Printf.printf "    (%S, %d, %d, %d, %d);\n%!" (Workloads.name w) seed t.committed
          t.aborted t.msgs
      done)
    workloads

let write_spans w ~seed spans =
  let dir = Filename.concat "perfbench" "_out" in
  if Sys.file_exists "perfbench" then begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.jsonl" (Workloads.name w) seed) in
    Spans.write_jsonl path spans;
    Printf.printf "spans: %d written to %s\n" (List.length spans) path
  end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "--pin" :: first :: last :: names ->
    let workloads =
      if names = [] then Workloads.all else List.filter_map Workloads.of_name names
    in
    pin (int_of_string first) (int_of_string last) workloads
  | _ ->
    let rec parse acc = function
      | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
    let w =
      match Workloads.of_name (get "workload") with
      | Some w -> w
      | None ->
        Printf.eprintf "unknown workload %s (known: %s)\n" (get "workload")
          (String.concat ", " (List.map Workloads.name Workloads.all));
        exit 2
    in
    let seed = Fingerprints.select (int "seed") and seconds = float_of_int (int "seconds") in
    Printf.printf "--seed %d runs benchmark seed %d\n" (int "seed") seed;
    let o =
      match int "trace" with
      | 0 -> Harness.run_e2e w ~seed ~seconds
      | 1 ->
        Harness.run_traced w ~seed
      | _ -> usage ()
    in
    List.iter print_endline o.Harness.lines;
    if o.Harness.spans <> [] then write_spans w ~seed o.Harness.spans;
    if not (List.for_all (fun (_, v, _) -> Float.is_finite v) o.Harness.metrics) then begin
      prerr_endline "a metric is not a finite number";
      exit 1
    end;
    print_endline (Harness.result_json o)
