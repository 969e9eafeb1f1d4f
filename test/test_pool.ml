(* Domain pool: index coverage, result placement by index, chunked claiming,
   exception propagation, inline degradation (domains=1 and nested jobs),
   the [~domains] clamps, and pool reuse across jobs — the mechanics the
   multicore determinism contract (test_multicore.ml) rests on. *)

let test_parallel_for_covers () =
  List.iter
    (fun (domains, n) ->
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Pool.parallel_for ~domains ~n (fun i -> Atomic.incr hits.(i));
      Array.iteri
        (fun i h ->
          Alcotest.(check int)
            (Printf.sprintf "index %d ran once (domains=%d n=%d)" i domains n)
            1 (Atomic.get h))
        hits)
    [ (1, 17); (2, 17); (4, 4); (4, 64); (3, 500); (2, 0); (4, 1) ]

let test_map_results_by_index () =
  let expect = Array.init 100 (fun i -> (i * i) + 1) in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "map lands by index (domains=%d)" domains)
        expect
        (Pool.map ~domains ~n:100 (fun i -> (i * i) + 1)))
    [ 1; 2; 4 ];
  Alcotest.(check (array int)) "map of n=0 is empty" [||]
    (Pool.map ~domains:4 ~n:0 (fun i -> i))

let test_for_chunks_covers () =
  List.iter
    (fun chunk ->
      let hits = Array.init 37 (fun _ -> Atomic.make 0) in
      Pool.for_chunks ~domains:4 ~chunk ~n:37 (fun i -> Atomic.incr hits.(i));
      Alcotest.(check (array int))
        (Printf.sprintf "every index once (chunk=%d)" chunk)
        (Array.make 37 1) (Array.map Atomic.get hits))
    [ 1; 2; 5; 37; 100 ]

let test_exception_propagates_then_reusable () =
  Alcotest.check_raises "first body exception re-raised" (Failure "boom")
    (fun () ->
      Pool.parallel_for ~domains:4 ~n:32 (fun i ->
          if i = 7 then failwith "boom"));
  (* The failed job must leave the pool serviceable. *)
  Alcotest.(check (array int)) "pool usable after a failed job"
    (Array.init 8 succ)
    (Pool.map ~domains:4 ~n:8 succ)

let test_nested_jobs_run_inline () =
  let total = Atomic.make 0 in
  Pool.parallel_for ~domains:4 ~n:8 (fun _ ->
      Pool.parallel_for ~domains:4 ~n:8 (fun _ -> Atomic.incr total));
  Alcotest.(check int) "all 64 nested bodies ran" 64 (Atomic.get total)

(* The clamps on [~domains], observed without spawning more than one worker:
   at n = 2 a job wants at most one worker whatever [~domains] asks for. *)
let test_bounds () =
  Alcotest.(check bool) "recommended >= 1" true (Pool.recommended () >= 1);
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d computes" domains)
        [| 1; 2 |]
        (Pool.map ~domains ~n:2 succ))
    [ Pool.max_domains + 50; max_int; 0; min_int ];
  (* Below 1 the job runs inline on the calling domain. *)
  let caller = Domain.self () in
  Pool.parallel_for ~domains:0 ~n:2 (fun _ ->
      Alcotest.(check bool) "domains=0 runs inline" true (Domain.self () = caller))

let suite =
  [
    Alcotest.test_case "parallel_for covers every index once" `Quick
      test_parallel_for_covers;
    Alcotest.test_case "map places results by index" `Quick
      test_map_results_by_index;
    Alcotest.test_case "for_chunks covers every index once" `Quick
      test_for_chunks_covers;
    Alcotest.test_case "exception propagates, pool stays usable" `Quick
      test_exception_propagates_then_reusable;
    Alcotest.test_case "nested jobs degrade to inline" `Quick
      test_nested_jobs_run_inline;
    Alcotest.test_case "domain-count bounds" `Quick test_bounds;
  ]
