(* Tests of the benchmark itself: span self time on a fake clock, the
   metric catalogue against BENCHMARK.json, the fingerprint gate, and
   the pins behind every seed a run can take. *)

open Atomrep_perfbench
module Json = Atomrep_obs.Json

let close = Alcotest.float 1e-9

let self_time_fake_clock () =
  let t = ref 0.0 in
  let spans = Spans.create ~clock:(fun () -> !t) ~run:"test" () in
  Spans.with_span spans "root" (fun () ->
      t := 1.0;
      Spans.with_span spans "a" (fun () ->
          t := 2.0;
          Spans.with_span spans "a.inner" (fun () -> t := 3.5);
          t := 4.0);
      t := 5.0;
      Spans.with_span spans "b" (fun () -> t := 8.0);
      t := 10.0);
  let self = List.map (fun ((_, name), v) -> (name, v)) (Layers.shares (Spans.spans spans)) in
  Alcotest.check close "root self" 4.0 (List.assoc "root" self);
  Alcotest.check close "a self" 1.5 (List.assoc "a" self);
  Alcotest.check close "a.inner self" 1.5 (List.assoc "a.inner" self);
  Alcotest.check close "b self" 3.0 (List.assoc "b" self);
  Alcotest.(check (list string))
    "every span is in the root's phase" [ "root"; "root"; "root"; "root" ]
    (List.map (fun ((phase, _), _) -> phase) (Layers.shares (Spans.spans spans)))

let self_time_exception () =
  let t = ref 0.0 in
  let spans = Spans.create ~clock:(fun () -> !t) ~run:"test" () in
  (try
     Spans.with_span spans "root" (fun () ->
         t := 2.0;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.check close "span closed on exception" 2.0
    (List.assoc ("root", "root") (Layers.shares (Spans.spans spans)))

let declared key =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  match Json.parse text with
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  | Ok json ->
    (match Json.member key json with
     | Some (Json.List items) ->
       List.map
         (fun item ->
           match (Json.member "name" item, Json.member "unit" item) with
           | Some (Json.Str n), Some (Json.Str u) -> (n, u)
           | _ -> Alcotest.failf "malformed %s entry" key)
         items
     | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key)

let names_units o = List.sort compare (List.map (fun (n, _, u) -> (n, u)) o.Harness.metrics)

let tiny_pin _ ~seed:_ = None

let emits_declared_metrics w () =
  let e2e = Harness.run_e2e ~size_of:Workloads.tiny_size ~pin:tiny_pin w ~seed:1 ~seconds:0.0 in
  Alcotest.(check bool) "e2e run correct" true e2e.correct;
  Alcotest.(check (list (pair string string)))
    "end_to_end metrics" (List.sort compare (declared "end_to_end")) (names_units e2e);
  let traced = Harness.run_traced ~size_of:Workloads.tiny_size ~pin:tiny_pin w ~seed:1 in
  Alcotest.(check bool) "traced run correct" true traced.correct;
  Alcotest.(check (list (pair string string)))
    "per_layer metrics" (List.sort compare (declared "per_layer")) (names_units traced);
  List.iter
    (fun (n, v, _) -> if not (Float.is_finite v) then Alcotest.failf "%s is %f" n v)
    (e2e.metrics @ traced.metrics)

let perturbed_config_trips w perturb () =
  let jobs = Workloads.setup w (Workloads.tiny_size w) ~seed:2 in
  let fp jobs = Workloads.fingerprint (fst (Workloads.run_pass jobs)) in
  let pinned = Some (fp jobs) in
  let ok fps = fst (Harness.fingerprint_check ~pinned fps) in
  Alcotest.(check bool) "replay matches the pin" true (ok [ fp jobs ]);
  let perturbed =
    List.map (fun (j : Workloads.job) -> { j with cfg = perturb j.cfg }) jobs
  in
  Alcotest.(check bool) "perturbed config trips the pin" false (ok [ fp perturbed ]);
  Alcotest.(check bool) "passes that disagree trip the gate" false
    (fst (Harness.fingerprint_check ~pinned:None [ fp jobs; fp perturbed ]))

let every_seed_pinned () =
  Array.iter
    (fun seed ->
      List.iter
        (fun w ->
          if Fingerprints.find ~workload:(Workloads.name w) ~seed = None then
            Alcotest.failf "%s: benchmark seed %d has no pin" (Workloads.name w) seed)
        Workloads.all)
    Fingerprints.seeds;
  List.iter
    (fun n ->
      let s = Fingerprints.select n in
      if not (Array.mem s Fingerprints.seeds) || List.mem s Fingerprints.excluded then
        Alcotest.failf "--seed %d selects %d" n s)
    [ 0; 1; 29; 63; 64; -1; 687075825; max_int; min_int ]

let () =
  let open Workloads in
  Alcotest.run "perfbench"
    [
      ( "spans",
        [
          Alcotest.test_case "self time on a fake clock" `Quick self_time_fake_clock;
          Alcotest.test_case "span closed on exception" `Quick self_time_exception;
        ] );
      ( "metrics",
        List.map
          (fun w -> Alcotest.test_case (name w) `Quick (emits_declared_metrics w))
          all );
      ( "fingerprint",
        [
          Alcotest.test_case "deep_hybrid_queue latency" `Quick
            (perturbed_config_trips Deep_hybrid_queue (fun cfg ->
                 { cfg with Atomrep_replica.Runtime.latency_mean = 2.5 }));
          Alcotest.test_case "gray_sweep arrivals" `Quick
            (perturbed_config_trips Gray_sweep (fun cfg ->
                 { cfg with Atomrep_replica.Runtime.arrival_mean = 45.0 }));
          Alcotest.test_case "every benchmark seed is pinned" `Quick every_seed_pinned;
        ] );
    ]
