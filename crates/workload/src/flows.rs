//! Synthetic per-endsystem traffic generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seaweed_store::{Table, Value};
use seaweed_types::{Duration, Time};

use crate::{flow_schema, packet_schema};

/// What kind of machine an endsystem is; shapes its traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EndsystemKind {
    /// Interactive desktop: diurnal client traffic.
    Workstation,
    /// Server: flat traffic, listens on privileged ports.
    Server,
}

/// One application in the traffic mix.
#[derive(Clone, Copy, Debug)]
struct AppSpec {
    name: &'static str,
    service_port: u16,
    proto: &'static str,
    /// Relative frequency among flows.
    weight: f64,
    /// Log-normal parameters for bytes per flow record.
    ln_mu: f64,
    ln_sigma: f64,
}

/// Traffic mix loosely modelled on mid-2000s enterprise inter-LAN
/// traffic: web dominates flow counts, SMB dominates bytes.
const APPS: &[AppSpec] = &[
    AppSpec {
        name: "HTTP",
        service_port: 80,
        proto: "TCP",
        weight: 0.42,
        ln_mu: 9.2,
        ln_sigma: 1.6,
    },
    AppSpec {
        name: "HTTPS",
        service_port: 443,
        proto: "TCP",
        weight: 0.13,
        ln_mu: 8.8,
        ln_sigma: 1.4,
    },
    AppSpec {
        name: "SMB",
        service_port: 445,
        proto: "TCP",
        weight: 0.16,
        ln_mu: 11.2,
        ln_sigma: 1.8,
    },
    AppSpec {
        name: "DNS",
        service_port: 53,
        proto: "UDP",
        weight: 0.14,
        ln_mu: 5.6,
        ln_sigma: 0.7,
    },
    AppSpec {
        name: "SMTP",
        service_port: 25,
        proto: "TCP",
        weight: 0.05,
        ln_mu: 8.4,
        ln_sigma: 1.2,
    },
    AppSpec {
        name: "RDP",
        service_port: 3389,
        proto: "TCP",
        weight: 0.04,
        ln_mu: 10.1,
        ln_sigma: 1.3,
    },
    AppSpec {
        name: "LDAP",
        service_port: 389,
        proto: "TCP",
        weight: 0.06,
        ln_mu: 6.9,
        ln_sigma: 0.9,
    },
];

/// Mean flow records per *active hour* for a workstation.
const WORKSTATION_FLOWS_PER_HOUR: f64 = 12.0;
/// Mean flow records per hour for a server (flat over the day).
const SERVER_FLOWS_PER_HOUR: f64 = 30.0;
/// Flow measurement interval (paper: 5 minutes).
const MEASUREMENT_INTERVAL: Duration = Duration::from_mins(5);

/// Configuration of the Anemone traffic generator.
#[derive(Clone, Debug)]
pub struct AnemoneConfig {
    /// Trace horizon (the paper captured ~3 weeks).
    pub horizon: Duration,
    /// Fraction of endsystems that are servers.
    pub server_fraction: f64,
    /// Packets sampled into the Packet table per flow record.
    pub packets_per_flow_sampled: usize,
}

impl Default for AnemoneConfig {
    fn default() -> Self {
        AnemoneConfig {
            horizon: Duration::WEEK * 3,
            server_fraction: 0.08,
            packets_per_flow_sampled: 0,
        }
    }
}

impl AnemoneConfig {
    /// Compact config for tests: fewer hours, same shape.
    #[must_use]
    pub fn small() -> Self {
        AnemoneConfig {
            horizon: Duration::from_days(2),
            ..AnemoneConfig::default()
        }
    }

    /// The kind assigned to `node` under `seed` (servers are chosen
    /// deterministically so callers can correlate with other per-node
    /// state).
    #[must_use]
    pub fn kind_of(&self, seed: u64, node: usize) -> EndsystemKind {
        let mut rng = node_rng(seed, node, 0);
        if rng.gen::<f64>() < self.server_fraction {
            EndsystemKind::Server
        } else {
            EndsystemKind::Workstation
        }
    }

    /// Generates the `Flow` fragment for one endsystem. If `up_intervals`
    /// is non-empty, flows are only generated while the endsystem is up.
    #[must_use]
    pub fn generate_flow_table(
        &self,
        seed: u64,
        node: usize,
        up_intervals: &[(Time, Time)],
    ) -> Table {
        let kind = self.kind_of(seed, node);
        let mut rng = node_rng(seed, node, 1);
        let mut table = Table::new(flow_schema());
        let interval_us = MEASUREMENT_INTERVAL.as_micros();
        let horizon_us = self.horizon.as_micros();
        let mut t_us = 0u64;
        while t_us < horizon_us {
            let t = Time::from_micros(t_us);
            let active = up_intervals.is_empty()
                || up_intervals.iter().any(|&(up, down)| t >= up && t < down);
            if active {
                let rate_per_hour = self.rate_at(kind, t);
                let mean_per_interval = rate_per_hour * (interval_us as f64 / 3.6e9);
                let n = poisson(&mut rng, mean_per_interval);
                for _ in 0..n {
                    let row = self.gen_flow_row(&mut rng, kind, t);
                    table.insert(row).expect("generated row matches schema");
                }
            }
            t_us += interval_us;
        }
        table
    }

    /// Generates a sampled `Packet` fragment for one endsystem (used by
    /// examples; empty unless `packets_per_flow_sampled > 0`).
    #[must_use]
    pub fn generate_packet_table(
        &self,
        seed: u64,
        node: usize,
        up_intervals: &[(Time, Time)],
    ) -> Table {
        let flows = self.generate_flow_table(seed, node, up_intervals);
        let mut rng = node_rng(seed, node, 2);
        let mut table = Table::new(packet_schema());
        for r in 0..flows.num_rows() {
            for _ in 0..self.packets_per_flow_sampled {
                let ts = flows.get(r, 0);
                let src = flows.get(r, 2);
                let dst = flows.get(r, 3);
                let proto = flows.get(r, 5);
                let dir = if rng.gen::<bool>() { "Rx" } else { "Tx" };
                let size = 40 + (rng.gen::<u32>() % 1460) as i64;
                table
                    .insert(vec![
                        ts,
                        src,
                        dst,
                        proto,
                        Value::from(dir),
                        Value::Int(size),
                    ])
                    .expect("generated row matches schema");
            }
        }
        table
    }

    /// Diurnal activity multiplier: workstations peak during office hours
    /// and go quiet at night and on weekends; servers are flat.
    fn rate_at(&self, kind: EndsystemKind, t: Time) -> f64 {
        match kind {
            EndsystemKind::Server => SERVER_FLOWS_PER_HOUR,
            EndsystemKind::Workstation => {
                let hour =
                    t.hour_of_day() as f64 + (t.micros_into_day() % 3_600_000_000) as f64 / 3.6e9;
                let weekday = t.day_of_week() < 5;
                // Smooth bump centred on 13:00 with sigma 3.5h.
                let bump = (-((hour - 13.0) * (hour - 13.0)) / (2.0 * 3.5 * 3.5)).exp();
                let base = 0.08 + 0.92 * bump;
                let day_factor = if weekday { 1.0 } else { 0.18 };
                WORKSTATION_FLOWS_PER_HOUR * base * day_factor
            }
        }
    }

    fn gen_flow_row(&self, rng: &mut StdRng, kind: EndsystemKind, t: Time) -> Vec<Value> {
        let app = pick_app(rng);
        // Server machines answer on the service port (local privileged
        // port); workstations initiate from ephemeral ports.
        let inbound_service = kind == EndsystemKind::Server && rng.gen::<f64>() < 0.75;
        let ephemeral: i64 = i64::from(rng.gen_range(1024u16..=65_000));
        let (src_port, dst_port, local_port) = if inbound_service {
            // Remote client -> our service: src is their ephemeral port.
            (
                ephemeral,
                i64::from(app.service_port),
                i64::from(app.service_port),
            )
        } else {
            // We are the client: data flows from the remote service port.
            (i64::from(app.service_port), ephemeral, ephemeral)
        };
        let bytes = lognormal(rng, app.ln_mu, app.ln_sigma).min(5e8) as i64;
        let packets = (bytes / 1200 + 1).max(1);
        vec![
            Value::Int(t.as_micros() as i64 / 1_000_000), // seconds since epoch
            Value::Int(MEASUREMENT_INTERVAL.as_micros() as i64 / 1_000_000),
            Value::Int(src_port),
            Value::Int(dst_port),
            Value::Int(local_port),
            Value::from(app.proto),
            Value::from(app.name),
            Value::Int(bytes),
            Value::Int(packets),
        ]
    }
}

/// Multiplier folding the per-caller stream id into [`node_rng`] seeds
/// (registered in lint.toml `[[stream]]`).
const FLOWS_STREAM_MIX: u64 = 0x94d0_49bb_1331_11eb;

/// Deterministic per-(seed, node, stream) RNG.
fn node_rng(seed: u64, node: usize, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((node as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(stream.wrapping_mul(FLOWS_STREAM_MIX)),
    )
}

fn pick_app(rng: &mut StdRng) -> &'static AppSpec {
    let total: f64 = APPS.iter().map(|a| a.weight).sum();
    let mut pick = rng.gen::<f64>() * total;
    for app in APPS {
        if pick < app.weight {
            return app;
        }
        pick -= app.weight;
    }
    &APPS[0]
}

/// Poisson sample (Knuth for small means, normal approximation above 30).
fn poisson(rng: &mut StdRng, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 30.0 {
        let g = gauss(rng, mean, mean.sqrt());
        return g.max(0.0).round() as u64;
    }
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

fn lognormal(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
    gauss(rng, 0.0, 1.0).mul_add(sigma, mu).exp()
}

fn gauss(rng: &mut StdRng, mean: f64, sd: f64) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    mean + sd * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaweed_store::exec::count_matching;
    use seaweed_store::Query;

    fn count(table: &Table, sql: &str) -> u64 {
        let q = Query::parse(sql)
            .unwrap()
            .bind(table.schema(), i64::MAX / 2)
            .unwrap();
        count_matching(&q, table)
    }

    #[test]
    fn generates_rows_matching_schema() {
        let cfg = AnemoneConfig::small();
        let t = cfg.generate_flow_table(1, 0, &[]);
        assert!(t.num_rows() > 50, "too few rows: {}", t.num_rows());
        // Every row satisfies basic sanity.
        assert_eq!(
            count(&t, "SELECT COUNT(*) FROM Flow WHERE Bytes >= 0"),
            t.num_rows() as u64
        );
        assert_eq!(
            count(&t, "SELECT COUNT(*) FROM Flow WHERE Packets >= 1"),
            t.num_rows() as u64
        );
    }

    #[test]
    fn http_dominates_flow_counts() {
        let cfg = AnemoneConfig::small();
        let t = cfg.generate_flow_table(2, 3, &[]);
        let http = count(&t, "SELECT COUNT(*) FROM Flow WHERE App='HTTP'");
        let smtp = count(&t, "SELECT COUNT(*) FROM Flow WHERE App='SMTP'");
        assert!(http > 3 * smtp, "http {http} smtp {smtp}");
        // The paper's headline query has matches: web traffic from port 80.
        assert!(count(&t, "SELECT COUNT(*) FROM Flow WHERE SrcPort=80") > 0);
    }

    #[test]
    fn servers_listen_on_privileged_ports() {
        let mut cfg = AnemoneConfig::small();
        cfg.server_fraction = 1.0;
        let server = cfg.generate_flow_table(5, 1, &[]);
        cfg.server_fraction = 0.0;
        let ws = cfg.generate_flow_table(5, 1, &[]);
        let s_priv = count(&server, "SELECT COUNT(*) FROM Flow WHERE LocalPort < 1024") as f64
            / server.num_rows() as f64;
        let w_priv = count(&ws, "SELECT COUNT(*) FROM Flow WHERE LocalPort < 1024") as f64
            / ws.num_rows() as f64;
        assert!(s_priv > 0.4, "server privileged fraction {s_priv}");
        assert!(w_priv < 0.05, "workstation privileged fraction {w_priv}");
    }

    #[test]
    fn diurnal_activity_for_workstations() {
        let mut cfg = AnemoneConfig::small();
        cfg.server_fraction = 0.0;
        let t = cfg.generate_flow_table(7, 2, &[]);
        // Compare flows in 12:00-15:00 vs 00:00-03:00 on day 0 (a Monday).
        let noon = count(
            &t,
            "SELECT COUNT(*) FROM Flow WHERE ts >= 43200 AND ts < 54000",
        );
        let night = count(&t, "SELECT COUNT(*) FROM Flow WHERE ts >= 0 AND ts < 10800");
        assert!(noon > night * 2, "noon {noon} night {night}");
    }

    #[test]
    fn availability_gating_suppresses_flows() {
        let cfg = AnemoneConfig::small();
        // Only up for the first 6 hours.
        let up = vec![(Time::ZERO, Time::ZERO + Duration::from_hours(6))];
        let t = cfg.generate_flow_table(3, 4, &up);
        let after = count(&t, "SELECT COUNT(*) FROM Flow WHERE ts >= 21600");
        assert_eq!(after, 0);
        assert!(t.num_rows() > 0);
    }

    #[test]
    fn deterministic_per_seed_and_node() {
        let cfg = AnemoneConfig::small();
        let a = cfg.generate_flow_table(9, 5, &[]);
        let b = cfg.generate_flow_table(9, 5, &[]);
        assert_eq!(a.num_rows(), b.num_rows());
        for r in (0..a.num_rows()).step_by(17) {
            for c in 0..a.schema().num_columns() {
                assert_eq!(a.get(r, c), b.get(r, c));
            }
        }
        let c2 = cfg.generate_flow_table(9, 6, &[]);
        assert!(
            a.num_rows() != c2.num_rows() || {
                (0..a.num_rows().min(c2.num_rows())).any(|r| a.get(r, 7) != c2.get(r, 7))
            }
        );
    }

    #[test]
    fn smb_flows_are_heavy() {
        let cfg = AnemoneConfig::small();
        let t = cfg.generate_flow_table(11, 7, &[]);
        let q = |sql: &str| {
            let q = Query::parse(sql).unwrap().bind(t.schema(), 0).unwrap();
            seaweed_store::exec::execute(&q, &t)
                .unwrap()
                .finish()
                .unwrap_or(0.0)
        };
        let smb_avg = q("SELECT AVG(Bytes) FROM Flow WHERE App='SMB'");
        let dns_avg = q("SELECT AVG(Bytes) FROM Flow WHERE App='DNS'");
        assert!(smb_avg > 10.0 * dns_avg, "smb {smb_avg} dns {dns_avg}");
    }

    #[test]
    fn packet_table_sampled() {
        let mut cfg = AnemoneConfig::small();
        cfg.horizon = Duration::from_hours(6);
        cfg.packets_per_flow_sampled = 2;
        let p = cfg.generate_packet_table(1, 0, &[]);
        let f = cfg.generate_flow_table(1, 0, &[]);
        assert_eq!(p.num_rows(), 2 * f.num_rows());
    }
}
