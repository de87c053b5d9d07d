//! Multi-client end-to-end: several heterogeneous clients ship
//! disjoint shards of the same logical stream to one server. Answers
//! must equal the single-client ground truth regardless of how budgets
//! were allocated across the fleet.

use ciao::{CiaoConfig, PushdownPlan};
use ciao_columnar::Schema;
use ciao_datagen::Dataset;
use ciao_json::RecordChunk;
use ciao_optimizer::{allocate_budgets, ClientSpec, CostModel, InstanceBuilder};
use ciao_predicate::{compile_clause, eval_query, parse_query, SelectivityEstimator};
use ciao_service::Shard;
use std::sync::Arc;

#[test]
fn sharded_ingest_matches_ground_truth() {
    let dataset = Dataset::Ycsb;
    let records = dataset.generate(77, 3_000);
    let ndjson = dataset.generate_ndjson(77, 3_000);
    let all = RecordChunk::from_ndjson(&ndjson);
    let queries = vec![
        parse_query("q0", "isActive = true").unwrap(),
        parse_query("q1", r#"age_group = "senior" AND isActive = true"#).unwrap(),
        parse_query("q2", "linear_score = 42").unwrap(),
    ];
    let sample: Vec<_> = records.iter().take(500).cloned().collect();

    let config = CiaoConfig::default();
    let plan = PushdownPlan::build(&queries, &sample, &config.cost_model, 30.0).unwrap();
    let schema = Arc::new(Schema::infer(&sample).unwrap());
    let prefilter = plan.prefilter();
    let shard = Shard::new(Arc::new(plan), schema, config.block_size);

    // Three clients take round-robin shards of the chunk stream.
    let chunks = all.split(256);
    for (i, chunk) in chunks.iter().enumerate() {
        // Client i % 3 processes this chunk (same prefilter logic;
        // heterogeneity affects the *budgets*, not the semantics).
        let _client = i % 3;
        let filter = prefilter.run_chunk(chunk);
        shard.ingest(chunk, &filter);
    }

    for q in &queries {
        let truth = records.iter().filter(|r| eval_query(q, r)).count();
        assert_eq!(shard.execute(q).count, truth, "query {}", q.name);
    }
}

#[test]
fn allocation_objective_grows_with_pool() {
    // More global budget can never hurt the allocated objective.
    let sample = Dataset::Ycsb.generate(5, 800);
    let queries = vec![
        parse_query("q0", "isActive = true").unwrap(),
        parse_query("q1", r#"phone_country = "+44""#).unwrap(),
        parse_query("q2", r#"age_group = "child""#).unwrap(),
    ];
    let estimator = SelectivityEstimator::new(&sample);
    let clauses: Vec<_> = queries.iter().flat_map(|q| q.pushable_clauses()).collect();
    let sels = estimator.estimate_all(clauses);
    let model = CostModel::default_uncalibrated();

    let clients = vec![
        ClientSpec::new("fast", 1.0, 0.5),
        ClientSpec::new("slow", 4.0, 0.5),
    ];
    let mut prev = 0.0;
    for pool_budget in [0.5, 1.0, 2.0, 4.0, 8.0] {
        let instance = InstanceBuilder::new(&sels, pool_budget).build(&queries, |c| {
            model.clause_cost(&compile_clause(c).unwrap(), 400.0, sels.get(c))
        });
        let plan = allocate_budgets(&instance, &clients);
        assert!(
            plan.objective >= prev - 1e-9,
            "objective decreased: {} -> {} at pool {}",
            prev,
            plan.objective,
            pool_budget
        );
        assert!(plan.total_spent() <= pool_budget + 1e-9);
        prev = plan.objective;
    }
    assert!(prev > 0.0, "largest pool should achieve positive objective");
}
