(* The calibration loop: a fixed computation that uses only the standard
   library, never the code under test — build a 2000-element integer set,
   list, sort and filter it, fold over it. Its duration tracks the speed
   the host gives this process at the moment it runs, so dividing a
   measured time by it cancels the host's drift while leaving any change
   to the library visible. *)

module S = Set.Make (Int)

let run () =
  let acc = ref 0 in
  for round = 1 to 15 do
    let s = ref S.empty in
    for i = 1 to 2000 do
      s := S.add (((i * 7919) + round) mod 100_003) !s
    done;
    let evens = List.filter (fun x -> x land 1 = 0) (S.elements !s) in
    let sorted = List.sort (fun a b -> compare b a) evens in
    acc := !acc + List.length sorted;
    for k = 1 to 20 do
      acc := !acc + S.fold (fun x a -> if x land 1 = k land 1 then a + 1 else a) !s 0
    done
  done;
  ignore (Sys.opaque_identity !acc)

(* Median of [samples] timed runs, in seconds. *)
let time ~samples =
  let one () =
    let t0 = Clock.now () in
    run ();
    Clock.now () -. t0
  in
  let xs = List.sort compare (List.init samples (fun _ -> one ())) in
  List.nth xs (samples / 2)

(* The loop's median duration, in seconds, on the host the benchmark was
   tuned on (2 vCPUs of an Intel Xeon). A time scaled by
   [reference_s /. time ~samples] is in seconds at that host's speed. *)
let reference_s = 0.012
