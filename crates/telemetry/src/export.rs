//! Exporters: Chrome/Perfetto trace JSON, Prometheus text format, and a
//! per-request lifecycle CSV.
//!
//! The Perfetto trace uses the Chrome trace-event JSON flavour (an
//! object with a `traceEvents` array), which `ui.perfetto.dev` opens
//! directly: one *process* per instance track so prefill/decode
//! interference is literally visible as stacked slices, plus a
//! `lifecycle` pseudo-process carrying request instants. Timestamps are
//! microseconds, as the format requires.

use std::fmt::Write as _;

use crate::event::LifecycleEvent;
use crate::recorder::Recording;
use crate::registry::MetricsRegistry;

/// Pseudo-track (Chrome `pid`) carrying request lifecycle instants.
pub const LIFECYCLE_TRACK: u64 = 1_000_000;

/// Escapes `s` for use inside a JSON string literal: quotes,
/// backslashes and control characters; everything else passes through
/// as UTF-8.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Seconds → trace microseconds, clamped finite.
fn us(t: f64) -> f64 {
    if t.is_finite() {
        t * 1e6
    } else {
        0.0
    }
}

impl Recording {
    /// Renders the Chrome/Perfetto trace JSON.
    ///
    /// Each instance track becomes a process (`pid` = track id) whose
    /// batch executions are complete (`ph: "X"`) slices with batch size
    /// and token count in `args`. Lifecycle events except `DecodeStep`
    /// (one per generated token — they would dwarf the file) appear as
    /// instants on [`LIFECYCLE_TRACK`].
    #[must_use]
    pub fn perfetto_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let push = |s: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(&s);
        };
        for (id, name) in self.track_names() {
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{id},\"tid\":0,\"name\":\"process_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    json_escape(&name)
                ),
                &mut out,
                &mut first,
            );
        }
        if !self.events.is_empty() {
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{LIFECYCLE_TRACK},\"tid\":0,\
                     \"name\":\"process_name\",\"args\":{{\"name\":\"lifecycle\"}}}}"
                ),
                &mut out,
                &mut first,
            );
        }
        for s in &self.slices {
            let dur = (us(s.end_s) - us(s.start_s)).max(0.0);
            push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":0,\"name\":\"{}\",\
                     \"ts\":{:.3},\"dur\":{:.3},\
                     \"args\":{{\"batch\":{},\"tokens\":{}}}}}",
                    s.track,
                    json_escape(s.name),
                    us(s.start_s),
                    dur,
                    s.batch,
                    s.tokens
                ),
                &mut out,
                &mut first,
            );
        }
        for ev in &self.events {
            if matches!(ev.kind, LifecycleEvent::DecodeStep { .. }) {
                continue;
            }
            push(
                format!(
                    "{{\"ph\":\"i\",\"pid\":{LIFECYCLE_TRACK},\"tid\":0,\"s\":\"p\",\
                     \"name\":\"{}\",\"ts\":{:.3},\
                     \"args\":{{\"request\":{},\"tenant\":{}}}}}",
                    ev.kind.name(),
                    us(ev.time_s),
                    ev.request,
                    ev.tenant
                ),
                &mut out,
                &mut first,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Renders the per-request lifecycle CSV: one row per request, one
    /// column per boundary (empty when the request skipped a stage),
    /// plus the decode-step count, the failure timestamp (empty unless
    /// the request terminally failed), the retry count, and the tenant
    /// the request belongs to.
    #[must_use]
    pub fn lifecycle_csv(&self) -> String {
        let mut out = String::from(
            "request,arrived,prefill_queued,prefill_start,prefill_end,\
             kv_migrate_start,kv_migrate_end,decode_queued,first_decode_step,\
             finished,rejected,decode_steps,failed,retries,tenant\n",
        );
        for (req, lc) in self.lifecycles() {
            let cell = |kind: LifecycleEvent| -> String {
                lc.first(kind).map_or(String::new(), |t| format!("{t:.9}"))
            };
            let steps = lc
                .events
                .iter()
                .filter(|(_, e)| matches!(e, LifecycleEvent::DecodeStep { .. }))
                .count();
            let retries = lc.retries();
            let tenant = lc.tenant;
            let _ = writeln!(
                out,
                "{req},{},{},{},{},{},{},{},{},{},{},{steps},{},{retries},{tenant}",
                cell(LifecycleEvent::Arrived),
                cell(LifecycleEvent::PrefillQueued),
                cell(LifecycleEvent::PrefillStart),
                cell(LifecycleEvent::PrefillEnd),
                cell(LifecycleEvent::KvMigrateStart),
                cell(LifecycleEvent::KvMigrateEnd),
                cell(LifecycleEvent::DecodeQueued),
                cell(LifecycleEvent::DecodeStep { generated: 0 }),
                cell(LifecycleEvent::Finished),
                cell(LifecycleEvent::Rejected),
                cell(LifecycleEvent::Failed),
            );
        }
        out
    }

    /// Renders the registry as Prometheus text format (see
    /// [`prometheus_text`]).
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        prometheus_text(&self.metrics)
    }
}

fn prom_value(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        }
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Renders a [`MetricsRegistry`] in Prometheus text exposition format.
/// Metric names get a `distserve_` prefix; the instance label carries
/// the track id; counters get the conventional `_total` suffix.
#[must_use]
pub fn prometheus_text(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut last_header = "";
    for (name, instance, value) in reg.counters() {
        if name != last_header {
            let _ = writeln!(out, "# TYPE distserve_{name}_total counter");
            last_header = name;
        }
        let _ = writeln!(
            out,
            "distserve_{name}_total{{instance=\"{instance}\"}} {value}"
        );
    }
    last_header = "";
    for (name, instance, value) in reg.gauges() {
        if name != last_header {
            let _ = writeln!(out, "# TYPE distserve_{name} gauge");
            last_header = name;
        }
        let _ = writeln!(
            out,
            "distserve_{name}{{instance=\"{instance}\"}} {}",
            prom_value(value)
        );
    }
    last_header = "";
    for (name, instance, hist) in reg.histograms() {
        if name != last_header {
            let _ = writeln!(out, "# TYPE distserve_{name} histogram");
            last_header = name;
        }
        for (bound, cum) in hist.cumulative() {
            let _ = writeln!(
                out,
                "distserve_{name}_bucket{{instance=\"{instance}\",le=\"{}\"}} {cum}",
                prom_value(bound)
            );
        }
        let _ = writeln!(
            out,
            "distserve_{name}_sum{{instance=\"{instance}\"}} {}",
            prom_value(hist.sum())
        );
        let _ = writeln!(
            out,
            "distserve_{name}_count{{instance=\"{instance}\"}} {}",
            hist.total()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Slice};
    use crate::recorder::Recorder;
    use crate::sink::TelemetrySink;
    use LifecycleEvent as E;

    fn sample_recording() -> Recording {
        let rec = Recorder::new();
        rec.declare_track(0, "prefill[0] \"tp1\"");
        rec.declare_track(1, "decode[1]");
        rec.slice(Slice {
            track: 0,
            name: "prefill",
            start_s: 0.010,
            end_s: 0.043,
            batch: 2,
            tokens: 1024,
        });
        rec.slice(Slice {
            track: 1,
            name: "decode",
            start_s: 0.050,
            end_s: 0.065,
            batch: 4,
            tokens: 4,
        });
        for (t, kind) in [
            (0.0, E::Arrived),
            (0.0, E::PrefillQueued),
            (0.010, E::PrefillStart),
            (0.043, E::PrefillEnd),
            (0.050, E::DecodeStep { generated: 2 }),
            (0.065, E::Finished),
        ] {
            rec.event(Event {
                request: 7,
                tenant: 2,
                time_s: t,
                kind,
            });
        }
        rec.counter_add("prefill_tokens", 0, 1024);
        rec.gauge_set("kv_utilization", 1, 0.25);
        rec.observe("batch_size", 0, 2.0);
        rec.snapshot()
    }

    #[test]
    fn perfetto_json_parses_and_has_slices() {
        let json = sample_recording().perfetto_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v["traceEvents"].as_array().unwrap();
        // 2 track names + lifecycle name + 2 slices + 5 instants
        // (DecodeStep excluded).
        let slices: Vec<_> = events.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0]["args"]["tokens"].as_u64(), Some(1024));
        // µs timestamps.
        assert!((slices[0]["ts"].as_f64().unwrap() - 10_000.0).abs() < 1e-6);
        assert!((slices[0]["dur"].as_f64().unwrap() - 33_000.0).abs() < 1e-6);
        let instants = events.iter().filter(|e| e["ph"] == "i").count();
        assert_eq!(instants, 5);
        // Escaped track name survives the round trip.
        let meta: Vec<_> = events.iter().filter(|e| e["ph"] == "M").collect();
        assert!(meta
            .iter()
            .any(|e| e["args"]["name"] == "prefill[0] \"tp1\""));
    }

    #[test]
    fn prometheus_text_format() {
        let text = sample_recording().prometheus_text();
        assert!(text.contains("# TYPE distserve_prefill_tokens_total counter"));
        assert!(text.contains("distserve_prefill_tokens_total{instance=\"0\"} 1024"));
        assert!(text.contains("# TYPE distserve_kv_utilization gauge"));
        assert!(text.contains("distserve_kv_utilization{instance=\"1\"} 0.25"));
        assert!(text.contains("distserve_batch_size_bucket{instance=\"0\",le=\"2\"} 0"));
        assert!(text.contains("distserve_batch_size_bucket{instance=\"0\",le=\"4\"} 1"));
        assert!(text.contains("distserve_batch_size_bucket{instance=\"0\",le=\"+Inf\"} 1"));
        assert!(text.contains("distserve_batch_size_count{instance=\"0\"} 1"));
    }

    #[test]
    fn lifecycle_csv_rows() {
        let csv = sample_recording().lifecycle_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("request,arrived"));
        let cells: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(cells[0], "7");
        assert_eq!(cells[1], "0.000000000"); // arrived
        assert_eq!(cells[5], ""); // no KV migration
        assert_eq!(cells[11], "1"); // one decode step
        assert_eq!(lines[0].split(',').nth(14), Some("tenant"));
        assert_eq!(cells[14], "2"); // tenant carried through
    }

    #[test]
    fn rejected_requests_appear_in_csv_with_attribution() {
        // A rejected request must not vanish from the per-request export:
        // its row carries the rejection timestamp so downstream attainment
        // accounting can count it as an SLO miss.
        let rec = Recorder::new();
        for (t, kind) in [(0.5, E::Arrived), (0.5, E::Rejected)] {
            rec.event(Event {
                request: 9,
                tenant: 0,
                time_s: t,
                kind,
            });
        }
        let snap = rec.snapshot();
        let lc = &snap.lifecycles()[&9];
        lc.validate().unwrap();
        let csv = snap.lifecycle_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        let cells: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(cells[0], "9");
        assert_eq!(cells[1], "0.500000000"); // arrived
        assert_eq!(cells[9], ""); // never finished
        assert_eq!(cells[10], "0.500000000"); // rejected
        assert_eq!(cells[11], "0"); // no decode steps
    }

    #[test]
    fn failed_and_retried_requests_appear_in_csv() {
        let rec = Recorder::new();
        for (t, kind) in [
            (0.0, E::Arrived),
            (0.0, E::PrefillQueued),
            (0.1, E::PrefillStart),
            (0.2, E::Retried { attempt: 1 }),
            (0.3, E::PrefillStart),
            (0.4, E::Retried { attempt: 2 }),
            (0.5, E::Failed),
        ] {
            rec.event(Event {
                request: 11,
                tenant: 1,
                time_s: t,
                kind,
            });
        }
        let snap = rec.snapshot();
        snap.lifecycles()[&11].validate().unwrap();
        let csv = snap.lifecycle_csv();
        let lines: Vec<&str> = csv.lines().collect();
        let header: Vec<&str> = lines[0].split(',').collect();
        assert_eq!(header[12], "failed");
        assert_eq!(header[13], "retries");
        let cells: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(cells[9], ""); // never finished
        assert_eq!(cells[12], "0.500000000"); // failed timestamp
        assert_eq!(cells[13], "2"); // two retries
    }

    #[test]
    fn empty_recording_exports_cleanly() {
        let r = Recording::default();
        let v: serde_json::Value = serde_json::from_str(&r.perfetto_json()).unwrap();
        assert_eq!(v["traceEvents"].as_array().unwrap().len(), 0);
        assert_eq!(r.prometheus_text(), "");
        assert_eq!(r.lifecycle_csv().lines().count(), 1);
    }
}
