//! The process-global tracer keeps span events only once an exporter asks
//! for them. This file's one test is the only code in its process that
//! touches the global tracer, so no other test can turn buffering on.

#[test]
fn global_tracer_buffers_events_only_after_buffering_is_turned_on() {
    for _ in 0..3 {
        let _outer = h2o_obs::span("outer");
        let _inner = h2o_obs::span("inner");
    }
    let snap = h2o_obs::snapshot();
    assert_eq!(
        snap.histograms["span_seconds{path=\"outer/inner\"}"].count, 3,
        "spans feed their histograms while buffering is off"
    );
    assert!(h2o_obs::drain_spans().is_empty());
    assert_eq!(h2o_obs::span::global().dropped(), 0);
    assert!(!snap.counters.contains_key("h2o_obs_spans_dropped_total"));

    h2o_obs::span::global().set_buffering(true);
    {
        let _outer = h2o_obs::span("outer");
        let _inner = h2o_obs::span("inner");
    }
    let paths: Vec<String> = h2o_obs::drain_spans().into_iter().map(|e| e.path).collect();
    assert_eq!(paths, ["outer/inner", "outer"]);
    assert!(!h2o_obs::snapshot()
        .counters
        .contains_key("h2o_obs_spans_dropped_total"));
}
