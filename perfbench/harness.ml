(* One benchmark run: set-up, timed passes, correctness gate, metrics. *)

module Summary = Atomrep_stats.Summary

let now = Clock.now

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list; (* name, value, unit *)
  lines : string list; (* human-readable report, printed before the JSON *)
  spans : Spans.span list; (* traced runs only *)
}

let median = Layers.median

(* Nearest-rank tail: the highest of these percentiles that leaves at
   least ten samples beyond it. *)
let tail_percentile n =
  List.fold_left
    (fun acc q -> if float_of_int n *. (1.0 -. q) >= 10.0 then Some q else acc)
    None [ 0.5; 0.9; 0.95; 0.99; 0.999 ]

let latency_line (t : Workloads.tally) =
  let n = Summary.count t.latencies in
  let tail =
    match tail_percentile n with
    | Some q ->
      Printf.sprintf "p%g %.1f ms (%d samples beyond)" (100.0 *. q)
        (Summary.percentile t.latencies q)
        (int_of_float (float_of_int n *. (1.0 -. q)))
    | None -> "tail n/a (fewer than 20 samples)"
  in
  Printf.sprintf "sim commit latency: p50 %.1f ms, %s, %d samples"
    (Summary.percentile t.latencies 0.5) tail n

let tally_lines (t : Workloads.tally) =
  [
    Printf.sprintf
      "txns: submitted %d committed %d aborted %d (abort_share %.4f) unresolved %d"
      t.submitted t.committed t.aborted
      (float_of_int t.aborted /. float_of_int (max 1 t.submitted))
      t.unresolved;
    latency_line t;
    Printf.sprintf "failed: %d (violating runs %d, raising runs %d, unresolved txns %d)"
      t.failed t.violating_runs t.raised t.unresolved;
  ]
  @ List.map (fun p -> "problem: " ^ p) (List.rev t.problems)

(* The fingerprint gate: a pinned seed must reproduce its pin, and every
   pass of a run must reproduce the same fingerprint. *)
let fingerprint_check ~pinned fps =
  let first = List.hd fps in
  let stable = List.for_all (fun f -> f = first) fps in
  let ok = stable && match pinned with Some p -> p = first | None -> true in
  let line =
    Printf.sprintf "fingerprint: %s (%s%s)" (Workloads.pp_fingerprint first)
      (match pinned with
       | Some p when p = first -> "matches pin"
       | Some p -> "MISMATCH, pinned " ^ Workloads.pp_fingerprint p
       | None -> "seed not pinned")
      (if stable then "" else ", DIFFERS between passes")
  in
  (ok, line)

let default_pin w ~seed = Fingerprints.find ~workload:(Workloads.name w) ~seed

(* Before the first timed pass (and a sweep's warm-up pass) and after
   every timed pass, the calibration loop is timed and then set-up is
   timed [setup_burst] times (at most [setup_max] in all), so that the
   set-up median spans the whole run. Each set-up time is scaled by
   [Calib.reference_s] over the calibration taken just before it:
   seconds at the reference host's speed. *)
let setup_burst = 5
let setup_max = 40
let calib_samples = 9

let run_e2e ?(size_of = Workloads.bench_size) ?(pin = default_pin) w ~seed ~seconds =
  let size = size_of w in
  let setup_times = ref [] and calibrations = ref [] in
  let checkpoint () =
    let calib = Calib.time ~samples:calib_samples in
    calibrations := calib :: !calibrations;
    for _ = 1 to setup_burst do
      if List.length !setup_times < setup_max then begin
        let t0 = now () in
        ignore (Workloads.setup w size ~seed);
        setup_times := ((now () -. t0) *. Calib.reference_s /. calib) :: !setup_times
      end
    done
  in
  let jobs = Workloads.setup w size ~seed in
  checkpoint ();
  (* A pass of several jobs (a sweep, or the bank's four histories) gets
     one untimed pass first, which lets the heap grow to its working
     size. A single deep history is its own warm-up. *)
  let warmup = if List.length jobs > 1 then [ fst (Workloads.run_pass jobs) ] else [] in
  let passes = ref [] and started = now () in
  let continue () =
    match !passes with
    | [] -> true
    | ps ->
      let spent = now () -. started in
      let mean = spent /. float_of_int (List.length ps) in
      spent +. mean <= seconds
  in
  (* The heap high-water mark is read after the first timed pass: up to
     there the allocation sequence is fixed by the seed, so the figure
     does not depend on how many passes the machine's speed allowed. *)
  let heap_words = ref 0 in
  while continue () do
    passes := Workloads.run_pass jobs :: !passes;
    if !heap_words = 0 then heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    checkpoint ()
  done;
  let passes = List.rev !passes in
  let first, _ = List.hd passes in
  let ok_fp, fp_line = fingerprint_check ~pinned:(pin w ~seed)
      (List.map Workloads.fingerprint (List.map fst passes @ warmup))
  in
  let attempted = List.fold_left (fun acc (t, _) -> acc + t.Workloads.submitted) 0 passes in
  let failed = List.fold_left (fun acc (t, _) -> acc + t.Workloads.failed) 0 passes in
  let rates =
    List.map (fun (t, wall) -> float_of_int t.Workloads.committed /. Float.max 1e-9 wall) passes
  in
  let calibrations = Array.of_list (List.rev !calibrations) in
  (* Each pass's rate is scaled by the mean of the calibrations on either side of it. *)
  let calibrated =
    List.mapi (fun i r -> r *. (calibrations.(i) +. calibrations.(i + 1)) /. 2.0) rates
  in
  let heap = !heap_words * (Sys.word_size / 8) in
  let metrics =
    [
      ("setup_s", median !setup_times, "s");
      ("committed_per_calib", median calibrated, "1/calib");
      ( "commit_share",
        float_of_int first.committed /. float_of_int (max 1 first.submitted),
        "ratio" );
      ("peak_heap_mb", float_of_int heap /. 1e6, "MB");
    ]
  in
  let lines =
    [
      Printf.sprintf "workload %s seed %d: %d jobs/pass, %d passes in %.1f s" (Workloads.name w)
        seed (List.length jobs) (List.length passes) (now () -. started);
      Printf.sprintf "committed_per_s: %.2f (per pass: %s)" (median rates)
        (String.concat " " (List.map (Printf.sprintf "%.1f") rates));
      Printf.sprintf "calibration loop: %s s"
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.5f") calibrations)));
      fp_line;
    ]
    @ tally_lines first
  in
  {
    correct = ok_fp && failed = 0;
    attempted;
    failed;
    metrics;
    lines;
    spans = [];
  }

let run_traced ?(size_of = Workloads.bench_size) ?(pin = default_pin) w ~seed =
  let spans = Spans.create ~run:(Printf.sprintf "%s/%d" (Workloads.name w) seed) () in
  let jobs =
    Spans.with_span spans "bench.setup" (fun () -> Workloads.setup ~spans w (size_of w) ~seed)
  in
  let r = Layers.run ~spans ~seed ~scale:(Workloads.scale w (size_of w)) jobs in
  let t = r.program.tally in
  let fp = Workloads.fingerprint t in
  let ok_fp, fp_line = fingerprint_check ~pinned:(pin w ~seed) (fp :: r.program.others) in
  let phase_total phase =
    List.fold_left (fun acc ((p, _), s) -> if p = phase then acc +. s else acc) 0.0 r.shares
  in
  let share_lines =
    List.map
      (fun ((phase, name), self) ->
        Printf.sprintf "share %-13s %-28s %-9s %9.4f s %5.1f%%" phase name (Layers.layer_of name)
          self
          (100.0 *. self /. Float.max 1e-9 (phase_total phase)))
      (List.stable_sort (fun ((p1, _), a) ((p2, _), b) ->
           if p1 = p2 then compare b a else 0) r.shares)
  in
  let lines =
    Printf.sprintf "workload %s seed %d (traced): %d jobs" (Workloads.name w) seed
      (List.length jobs)
    :: fp_line :: tally_lines t
    @ Printf.sprintf "trace overhead per pair: %s"
        (String.concat " " (List.map (Printf.sprintf "%.3f") r.program.overhead))
      :: share_lines
  in
  {
    correct = ok_fp && t.failed = 0;
    attempted = t.submitted;
    failed = t.failed;
    metrics = r.metrics;
    lines;
    spans = r.spans;
  }

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_json o =
  let metric (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" o.correct
    o.attempted o.failed
    (String.concat ", " (List.map metric o.metrics))
