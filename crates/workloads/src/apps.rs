//! Synthetic models of the applications evaluated in the paper: the five
//! real-world programs (OpenLDAP, MySQL, pbzip2, TransmissionBT, HandBrake)
//! and the PARSEC benchmarks.
//!
//! Each model is a [`Profile`] whose behaviour mix is derived from the
//! application's Table 1 row: the proportions of read-read, disjoint-write,
//! null-lock and benign critical sections follow the paper's measured
//! breakdown, while the absolute dynamic counts are scaled down roughly an
//! order of magnitude so that the full evaluation runs in seconds.

use perfplay_program::Program;
use perfplay_trace::Time;

use crate::profile::{build_lock_free_program, build_program, Profile, SectionMix, WorkloadConfig};

/// The applications of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum App {
    /// OpenLDAP directory server (DirectoryMark-style search load).
    OpenLdap,
    /// MySQL database server (mysqlslap-style query load).
    Mysql,
    /// pbzip2 parallel compressor.
    Pbzip2,
    /// TransmissionBT BitTorrent client.
    TransmissionBt,
    /// HandBrake video transcoder.
    HandBrake,
    /// PARSEC blackscholes.
    Blackscholes,
    /// PARSEC bodytrack.
    Bodytrack,
    /// PARSEC canneal.
    Canneal,
    /// PARSEC dedup.
    Dedup,
    /// PARSEC facesim.
    Facesim,
    /// PARSEC ferret.
    Ferret,
    /// PARSEC fluidanimate.
    Fluidanimate,
    /// PARSEC streamcluster.
    Streamcluster,
    /// PARSEC swaptions.
    Swaptions,
    /// PARSEC vips.
    Vips,
    /// PARSEC x264.
    X264,
}

impl App {
    /// All applications in Table 1 order.
    pub const ALL: [App; 16] = [
        App::OpenLdap,
        App::Mysql,
        App::Pbzip2,
        App::TransmissionBt,
        App::HandBrake,
        App::Blackscholes,
        App::Bodytrack,
        App::Canneal,
        App::Dedup,
        App::Facesim,
        App::Ferret,
        App::Fluidanimate,
        App::Streamcluster,
        App::Swaptions,
        App::Vips,
        App::X264,
    ];

    /// The five real-world programs.
    pub const REAL_WORLD: [App; 5] = [
        App::OpenLdap,
        App::Mysql,
        App::Pbzip2,
        App::TransmissionBt,
        App::HandBrake,
    ];

    /// The PARSEC benchmarks (all except freqmine, which the paper skips).
    pub const PARSEC: [App; 11] = [
        App::Blackscholes,
        App::Bodytrack,
        App::Canneal,
        App::Dedup,
        App::Facesim,
        App::Ferret,
        App::Fluidanimate,
        App::Streamcluster,
        App::Swaptions,
        App::Vips,
        App::X264,
    ];

    /// The applications reported in Table 2 (grouped ULCP code regions).
    pub const TABLE2: [App; 10] = [
        App::OpenLdap,
        App::Mysql,
        App::Pbzip2,
        App::TransmissionBt,
        App::HandBrake,
        App::Blackscholes,
        App::Bodytrack,
        App::Facesim,
        App::Fluidanimate,
        App::Swaptions,
    ];

    /// Application name as the paper spells it.
    pub fn name(self) -> &'static str {
        match self {
            App::OpenLdap => "openldap",
            App::Mysql => "mysql",
            App::Pbzip2 => "pbzip2",
            App::TransmissionBt => "transmissionBT",
            App::HandBrake => "handbrake",
            App::Blackscholes => "blackscholes",
            App::Bodytrack => "bodytrack",
            App::Canneal => "canneal",
            App::Dedup => "dedup",
            App::Facesim => "facesim",
            App::Ferret => "ferret",
            App::Fluidanimate => "fluidanimate",
            App::Streamcluster => "streamcluster",
            App::Swaptions => "swaptions",
            App::Vips => "vips",
            App::X264 => "x264",
        }
    }

    /// The "LOC" column of Table 1 (static source size of the real
    /// application being modelled).
    pub fn loc(self) -> &'static str {
        match self {
            App::OpenLdap => "392K",
            App::Mysql => "1,132K",
            App::Pbzip2 => "5K",
            App::TransmissionBt => "79K",
            App::HandBrake => "1,070K",
            App::Blackscholes => "812",
            App::Bodytrack => "10K",
            App::Canneal => "4K",
            App::Dedup => "3.6K",
            App::Facesim => "29K",
            App::Ferret => "9.7K",
            App::Fluidanimate => "1.4K",
            App::Streamcluster => "1.3K",
            App::Swaptions => "1.5K",
            App::Vips => "3.2K",
            App::X264 => "40.3K",
        }
    }

    /// The "Size" column of Table 1 (binary code size of the real
    /// application being modelled).
    pub fn code_size(self) -> &'static str {
        match self {
            App::OpenLdap => "6M",
            App::Mysql => "22M",
            App::Pbzip2 => "1M",
            App::TransmissionBt => "4M",
            App::HandBrake => "3M",
            App::Blackscholes => "204K",
            App::Bodytrack => "9.0M",
            App::Canneal => "628K",
            App::Dedup => "156K",
            App::Facesim => "4.8K",
            App::Ferret => "316K",
            App::Fluidanimate => "72K",
            App::Streamcluster => "44K",
            App::Swaptions => "152K",
            App::Vips => "17M",
            App::X264 => "2.4M",
        }
    }

    /// The synthetic profile behind this application, or `None` for the
    /// essentially lock-free applications.
    pub fn profile(self) -> Option<Profile> {
        let p = |locks, sections, mix, cs_ns, gap_ns, unlocked| Profile {
            name: self.name(),
            locks,
            sections_per_thread: sections,
            mix,
            cs_cost: Time::from_nanos(cs_ns),
            gap_cost: Time::from_nanos(gap_ns),
            unlocked_reads: unlocked,
        };
        let mix = |rr, dw, nl, benign, conflict| SectionMix {
            read_read: rr,
            disjoint_write: dw,
            null_lock: nl,
            benign,
            conflict,
        };
        // Mix proportions are tuned so that the *pair-level* category counts
        // (what Table 1 actually reports) follow each application's ratio:
        // read-read pairs grow with rr², disjoint-write pairs also pick up
        // the rr×dw and benign×dw cross terms, benign pairs grow with
        // benign², and null-lock pairs with nl×everything.
        match self {
            // Real-world programs.
            App::OpenLdap => Some(p(4, 92, mix(65, 10, 2, 1, 3), 450, 900, 2)),
            App::Mysql => Some(p(3, 105, mix(71, 10, 1, 2, 2), 500, 800, 2)),
            App::Pbzip2 => Some(p(2, 64, mix(58, 20, 1, 2, 3), 650, 1_200, 3)),
            App::TransmissionBt => Some(p(2, 18, mix(34, 14, 3, 8, 6), 400, 2_000, 2)),
            App::HandBrake => Some(p(8, 150, mix(62, 20, 1, 5, 8), 350, 700, 2)),
            // PARSEC.
            App::Blackscholes => None,
            App::Bodytrack => Some(p(8, 160, mix(69, 8, 0, 3, 5), 300, 500, 3)),
            App::Canneal => Some(p(2, 9, mix(0, 0, 0, 0, 1), 300, 4_000, 4)),
            App::Dedup => Some(p(6, 150, mix(57, 20, 4, 3, 4), 400, 600, 2)),
            App::Facesim => Some(p(6, 120, mix(52, 20, 4, 1, 9), 1_500, 800, 2)),
            App::Ferret => Some(p(6, 80, mix(18, 12, 1, 40, 6), 400, 700, 2)),
            App::Fluidanimate => Some(p(16, 250, mix(71, 20, 1, 1, 2), 150, 250, 1)),
            App::Streamcluster => Some(p(1, 10, mix(0, 0, 0, 0, 1), 300, 3_000, 4)),
            App::Swaptions => Some(p(1, 3, mix(0, 0, 0, 0, 1), 200, 8_000, 2)),
            App::Vips => Some(p(10, 180, mix(75, 9, 2, 1, 2), 250, 450, 2)),
            App::X264 => Some(p(8, 140, mix(78, 4, 10, 2, 3), 300, 600, 2)),
        }
    }

    /// Builds the runnable program model for this application.
    pub fn build(self, config: &WorkloadConfig) -> Program {
        match self.profile() {
            Some(profile) => build_program(&profile, config),
            None => build_lock_free_program(self.name(), config, 0, Time::from_micros(80)),
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::InputSize;
    use perfplay_detect::Detector;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;

    #[test]
    fn every_app_builds_a_valid_program() {
        let config = WorkloadConfig::new(2, InputSize::SimSmall);
        for app in App::ALL {
            let program = app.build(&config);
            assert!(program.validate().is_ok(), "{app} must validate");
            assert_eq!(program.num_threads(), 2);
            assert_eq!(program.name, app.name());
        }
    }

    #[test]
    fn app_groupings_are_consistent() {
        assert_eq!(App::ALL.len(), 16);
        assert_eq!(App::REAL_WORLD.len() + App::PARSEC.len(), 16);
        assert_eq!(App::TABLE2.len(), 10);
        for app in App::REAL_WORLD {
            assert!(App::ALL.contains(&app));
        }
        assert_eq!(App::OpenLdap.to_string(), "openldap");
        assert!(!App::Mysql.loc().is_empty());
        assert!(!App::Mysql.code_size().is_empty());
    }

    #[test]
    fn lock_free_apps_show_no_ulcps() {
        let config = WorkloadConfig::new(2, InputSize::SimSmall);
        for app in [
            App::Blackscholes,
            App::Canneal,
            App::Streamcluster,
            App::Swaptions,
        ] {
            let trace = Recorder::new(SimConfig::default())
                .record(&app.build(&config))
                .unwrap()
                .trace;
            let analysis = Detector::default().analyze(&trace);
            assert_eq!(
                analysis.breakdown.total_ulcps(),
                0,
                "{app} should be ULCP-free"
            );
        }
    }

    #[test]
    fn read_heavy_apps_are_dominated_by_read_read_ulcps() {
        let config = WorkloadConfig::new(2, InputSize::SimSmall);
        for app in [
            App::OpenLdap,
            App::Mysql,
            App::Bodytrack,
            App::Fluidanimate,
            App::Vips,
        ] {
            let trace = Recorder::new(SimConfig::default())
                .record(&app.build(&config))
                .unwrap()
                .trace;
            let analysis = Detector::default().analyze(&trace);
            let b = analysis.breakdown;
            assert!(b.total_ulcps() > 0, "{app} should have ULCPs");
            assert!(
                b.read_read >= b.disjoint_write,
                "{app}: RR {} should dominate DW {}",
                b.read_read,
                b.disjoint_write
            );
        }
    }

    #[test]
    fn ferret_is_dominated_by_benign_pairs_like_the_paper() {
        let config = WorkloadConfig::new(2, InputSize::SimSmall);
        let trace = Recorder::new(SimConfig::default())
            .record(&App::Ferret.build(&config))
            .unwrap()
            .trace;
        let analysis = Detector::default().analyze(&trace);
        let b = analysis.breakdown;
        assert!(b.benign > b.read_read, "ferret: benign should dominate");
    }

    #[test]
    fn x264_has_the_largest_null_lock_share_of_the_real_mixes() {
        let config = WorkloadConfig::new(2, InputSize::SimSmall);
        let breakdown_of = |app: App| {
            let trace = Recorder::new(SimConfig::default())
                .record(&app.build(&config))
                .unwrap()
                .trace;
            Detector::default().analyze(&trace).breakdown
        };
        let x264 = breakdown_of(App::X264);
        let vips = breakdown_of(App::Vips);
        assert!(x264.null_lock > vips.null_lock);
    }

    #[test]
    fn acquisition_counts_preserve_relative_ordering() {
        let config = WorkloadConfig::new(2, InputSize::SimMedium);
        let acq = |app: App| {
            Recorder::new(SimConfig::default())
                .record(&app.build(&config))
                .unwrap()
                .trace
                .num_acquisitions()
        };
        // fluidanimate is the most lock-intensive PARSEC benchmark in the
        // paper; swaptions and canneal the least.
        let fluid = acq(App::Fluidanimate);
        let body = acq(App::Bodytrack);
        let swap = acq(App::Swaptions);
        let canneal = acq(App::Canneal);
        assert!(fluid > body);
        assert!(body > canneal);
        assert!(canneal > swap);
    }
}
