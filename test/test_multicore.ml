(* Sequential-equals-parallel bit-identity — the hard invariant of the
   multicore execution layer. Every entry point that takes [?domains] must
   produce byte-identical results for every domain count: engine outputs,
   per-session metrics (labels included), the aggregate ledger, the message
   CSV and the Det obs JSONL; Workload.run_cells sweeps. Plus the
   shard-merge unit test for Obs that the engine's merge pass relies on. *)

open Net

(* ---- shared fixtures (the test_engine.ml session family) ---------------- *)

let session_inputs ~n k =
  let rng = Prng.create (9000 + k) in
  Workload.clustered_bits rng ~n ~bits:64 ~shared_prefix_bits:32

let mk_protocol ~n k =
  let inputs = session_inputs ~n k in
  fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me)

(* A comparable, fully-structural image of an engine outcome: Bigints as hex,
   metrics as their counter tuple plus the deterministic label table. *)
let fingerprint (o : Bigint.t Engine.outcome) =
  ( List.map
      (fun r ->
        ( r.Engine.r_sid,
          Array.to_list (Array.map (Option.map Bigint.to_hex) r.Engine.r_outputs),
          ( r.Engine.r_metrics.Metrics.rounds,
            r.Engine.r_metrics.Metrics.honest_bits,
            r.Engine.r_metrics.Metrics.honest_msgs,
            r.Engine.r_metrics.Metrics.byz_bits,
            r.Engine.r_metrics.Metrics.byz_msgs ),
          Metrics.labels r.Engine.r_metrics,
          (r.Engine.r_admitted_at, r.Engine.r_retired_at) ))
      o.Engine.sessions,
    o.Engine.aggregate )

let engine_run ~domains ~sessions ~spacing ~n ~t ~seed =
  let corrupt = Workload.spread_corrupt ~n ~t in
  let specs =
    List.init sessions (fun k ->
        let inputs =
          let rng = Prng.create (seed + (101 * k)) in
          Workload.clustered_bits rng ~n ~bits:48 ~shared_prefix_bits:16
        in
        Engine.session ~sid:k ~start_round:(spacing * k)
          ~adversary:(Adversary.equivocate ~seed:(seed + (31 * k)))
          (fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me)))
  in
  let obs = Obs.create ~messages:true () in
  let outcome = Engine.run_sim ~domains ~obs ~n ~t ~corrupt specs in
  (fingerprint outcome, Obs.messages_csv obs, Obs.to_jsonl ~tier:Obs.Det obs)

(* ---- engine: K=8 under equivocate, domains 1/2/4 ------------------------ *)

let test_engine_bit_identical () =
  let run domains =
    engine_run ~domains ~sessions:8 ~spacing:2 ~n:7 ~t:2 ~seed:4242
  in
  let base_fp, base_csv, base_jsonl = run 1 in
  List.iter
    (fun domains ->
      let fp, csv, jsonl = run domains in
      Alcotest.(check bool)
        (Printf.sprintf "outputs+metrics+ledger (domains=%d)" domains)
        true (fp = base_fp);
      Alcotest.(check string)
        (Printf.sprintf "trace CSV byte-identical (domains=%d)" domains)
        base_csv csv;
      Alcotest.(check string)
        (Printf.sprintf "Det obs JSONL byte-identical (domains=%d)" domains)
        base_jsonl jsonl)
    [ 2; 4 ]

(* qcheck: the identity holds for random session counts, admission spacings
   and seeds, not just the hand-picked fixture. *)
let prop_engine_parallel_equals_sequential =
  QCheck.Test.make ~count:10
    ~name:"engine parallel = sequential (random K, spacing, seed)"
    QCheck.(triple (int_range 1 6) (int_range 0 4) (int_range 0 9999))
    (fun (sessions, spacing, seed) ->
      let run domains =
        engine_run ~domains ~sessions ~spacing ~n:7 ~t:2 ~seed
      in
      run 1 = run 3)

(* ---- run_cells ----------------------------------------------------------- *)

let sweep_cells () =
  List.concat_map
    (fun seed ->
      List.map
        (fun n ->
          Workload.cell ~label:(Printf.sprintf "seed%d-n%d" seed n) (fun () ->
              let rng = Prng.create seed in
              let inputs =
                Workload.clustered_bits rng ~n ~bits:32 ~shared_prefix_bits:8
              in
              let t = (n - 1) / 3 in
              Workload.run_int ~n ~t
                ~corrupt:(Workload.spread_corrupt ~n ~t)
                ~adversary:(Adversary.equivocate ~seed:(seed + 1))
                ~inputs Convex.agree_int))
        [ 4; 7 ])
    [ 1; 2; 3 ]

let test_run_cells_bit_identical () =
  let seq = Workload.run_cells ~domains:1 (sweep_cells ()) in
  let par = Workload.run_cells ~domains:3 (sweep_cells ()) in
  Alcotest.(check bool) "run_cells parallel = sequential" true (seq = par);
  Alcotest.(check (list string)) "labels in input order"
    (List.map fst seq) (List.map fst par)

(* ---- Obs shard merge ----------------------------------------------------- *)

let record_session o ~session =
  for party = 0 to 1 do
    Obs.push o ~session ~party ~round:0 ~label:"phase";
    Obs.message o ~session ~party ~dst:(1 - party) ~round:1
      ~timeline_round:(session + 1)
      ~bytes:(4 + session) ~byzantine:false;
    Obs.probe o ~session ~party ~round:1 ~byzantine:false ~key:"v"
      ~value:(Bitstring.of_int (session + party));
    Obs.pop o ~session ~party ~round:1;
    Obs.finish o ~session ~party ~round:2
  done

let test_obs_merge () =
  (* Direct recording in session order... *)
  let direct = Obs.create ~messages:true () in
  Obs.set_meta direct "kind" "merge-test";
  List.iter (fun s -> record_session direct ~session:s) [ 0; 1; 2 ];
  (* ...equals per-session shards merged in session-index order. *)
  let merged = Obs.create ~messages:true () in
  Obs.set_meta merged "kind" "merge-test";
  List.iter
    (fun s ->
      let shard = Obs.shard (Some merged) in
      record_session shard ~session:s;
      Obs.merge ~into:merged shard)
    [ 0; 1; 2 ];
  Alcotest.(check string) "merged JSONL byte-identical" (Obs.to_jsonl direct)
    (Obs.to_jsonl merged);
  Alcotest.(check (list (pair string int))) "merged label table"
    (Obs.label_bits direct) (Obs.label_bits merged);
  Alcotest.(check string) "merged message CSV" (Obs.messages_csv direct)
    (Obs.messages_csv merged);
  let a = Obs.create () and b = Obs.create () in
  record_session a ~session:0;
  record_session b ~session:0;
  match Obs.merge ~into:a b with
  | () -> Alcotest.fail "bucket collision not rejected"
  | exception Invalid_argument msg ->
      (* Which colliding party is reported depends on hash order; the bucket
         diagnostic prefix is the contract. *)
      Alcotest.(check string) "collision diagnostic" "Obs.merge: bucket"
        (String.sub msg 0 17)

let suite =
  [
    Alcotest.test_case "engine K=8 equivocate: domains 1/2/4 byte-identical"
      `Quick test_engine_bit_identical;
    QCheck_alcotest.to_alcotest prop_engine_parallel_equals_sequential;
    Alcotest.test_case "run_cells: parallel sweep = sequential sweep" `Quick
      test_run_cells_bit_identical;
    Alcotest.test_case "Obs shard merge reproduces sequential JSONL" `Quick
      test_obs_merge;
  ]
