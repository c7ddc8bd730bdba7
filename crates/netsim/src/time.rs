//! Simulation time: days, minutes, seconds, and the circadian structure.
//!
//! The paper's statistics are organized around three clocks: per-minute
//! session arrival counts, per-day aggregation windows, and the day/night
//! dichotomy that produces the bimodal arrival PDFs of Fig 3 (§6.1 defines
//! night as 22:00–08:00).

/// Seconds in a day.
pub const SECONDS_PER_DAY: u32 = 86_400;
/// Minutes in a day.
pub const MINUTES_PER_DAY: u32 = 1_440;
/// Start of the peak (daylight) window: 08:00.
pub const PEAK_START_MIN: u32 = 8 * 60;
/// End of the peak window: 22:00.
pub const PEAK_END_MIN: u32 = 22 * 60;

/// A simulation timestamp: day index plus second-of-day.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SimTime {
    /// Day index from the start of the simulated measurement campaign.
    pub day: u32,
    /// Seconds since this day's midnight (fractional for sub-second).
    pub second: f64,
}

impl SimTime {
    /// Creates a timestamp; normalizes out-of-range seconds into days in
    /// either direction (negative seconds borrow from earlier days).
    ///
    /// # Panics
    ///
    /// Panics on non-finite seconds, on timestamps that would precede
    /// day 0 (the campaign start), and on day-index overflow — all three
    /// used to be silently clamped, which turned caller bugs into
    /// corrupted per-day attribution instead of a diagnosable failure.
    #[must_use]
    pub fn new(day: u32, second: f64) -> Self {
        assert!(
            second.is_finite(),
            "SimTime::new: non-finite second ({second})"
        );
        // The division stays even for in-day seconds: just under 86,400
        // it rounds to 1.0, and that second shifts the day.
        let days = second / f64::from(SECONDS_PER_DAY);
        if (0.0..1.0).contains(&days) {
            return SimTime { day, second };
        }
        let extra_days = days.floor();
        let shifted = i128::from(day) + extra_days as i128;
        assert!(
            shifted >= 0,
            "SimTime::new: day {day} + {second} s precedes the campaign start"
        );
        assert!(
            shifted <= i128::from(u32::MAX),
            "SimTime::new: day {day} + {second} s overflows the day index"
        );
        SimTime {
            day: shifted as u32,
            second: second - extra_days * f64::from(SECONDS_PER_DAY),
        }
    }

    /// Minute-of-day (0..1440) of this timestamp.
    #[must_use]
    pub fn minute_of_day(&self) -> u32 {
        ((self.second / 60.0) as u32).min(MINUTES_PER_DAY - 1)
    }

    /// Absolute seconds since the campaign start.
    #[must_use]
    pub fn absolute_seconds(&self) -> f64 {
        f64::from(self.day) * f64::from(SECONDS_PER_DAY) + self.second
    }

    /// Timestamp advanced by `secs` seconds (may cross midnight).
    #[must_use]
    pub fn plus_seconds(&self, secs: f64) -> SimTime {
        SimTime::new(self.day, self.second + secs)
    }

    /// Day type of this timestamp: the campaign starts on a Monday.
    #[must_use]
    pub fn day_type(&self) -> DayType {
        DayType::of_day(self.day)
    }
}

/// Working day vs weekend — the temporal split of §4.4 / Fig 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DayType {
    Workday,
    Weekend,
}

impl DayType {
    /// Day type of a day index; day 0 is a Monday.
    #[must_use]
    pub fn of_day(day: u32) -> DayType {
        match day % 7 {
            5 | 6 => DayType::Weekend,
            _ => DayType::Workday,
        }
    }

    /// Label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DayType::Workday => "workday",
            DayType::Weekend => "weekend",
        }
    }
}

/// Whether a minute-of-day falls in the peak (daylight) arrival regime.
#[must_use]
pub fn is_peak_minute(minute_of_day: u32) -> bool {
    (PEAK_START_MIN..PEAK_END_MIN).contains(&minute_of_day)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minute_of_day_boundaries() {
        assert_eq!(SimTime::new(0, 0.0).minute_of_day(), 0);
        assert_eq!(SimTime::new(0, 59.9).minute_of_day(), 0);
        assert_eq!(SimTime::new(0, 60.0).minute_of_day(), 1);
        assert_eq!(SimTime::new(0, 86_399.0).minute_of_day(), 1439);
    }

    #[test]
    fn plus_seconds_crosses_midnight() {
        let t = SimTime::new(2, 86_000.0).plus_seconds(500.0);
        assert_eq!(t.day, 3);
        assert!((t.second - 100.0).abs() < 1e-9);
    }

    #[test]
    fn new_normalizes_overflow() {
        let t = SimTime::new(0, 2.5 * f64::from(SECONDS_PER_DAY));
        assert_eq!(t.day, 2);
        assert!((t.second - 43_200.0).abs() < 1e-6);
    }

    #[test]
    fn new_borrows_days_for_negative_seconds() {
        let t = SimTime::new(2, -100.0);
        assert_eq!(t.day, 1);
        assert!((t.second - 86_300.0).abs() < 1e-9);
        // Multi-day borrow.
        let t = SimTime::new(5, -2.5 * f64::from(SECONDS_PER_DAY));
        assert_eq!(t.day, 2);
        assert!((t.second - 43_200.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn new_rejects_nan_seconds() {
        let _ = SimTime::new(0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn new_rejects_infinite_seconds() {
        let _ = SimTime::new(0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "precedes the campaign start")]
    fn new_rejects_times_before_day_zero() {
        let _ = SimTime::new(0, -1.0);
    }

    #[test]
    #[should_panic(expected = "overflows the day index")]
    fn new_rejects_day_overflow() {
        let _ = SimTime::new(u32::MAX, f64::from(SECONDS_PER_DAY));
    }

    #[test]
    fn day_types_follow_week() {
        assert_eq!(DayType::of_day(0), DayType::Workday); // Monday
        assert_eq!(DayType::of_day(4), DayType::Workday); // Friday
        assert_eq!(DayType::of_day(5), DayType::Weekend); // Saturday
        assert_eq!(DayType::of_day(6), DayType::Weekend); // Sunday
        assert_eq!(DayType::of_day(7), DayType::Workday); // next Monday
    }

    #[test]
    fn peak_window_matches_paper() {
        assert!(!is_peak_minute(7 * 60 + 59));
        assert!(is_peak_minute(8 * 60));
        assert!(is_peak_minute(21 * 60 + 59));
        assert!(!is_peak_minute(22 * 60));
    }

    #[test]
    fn absolute_seconds_monotone() {
        let a = SimTime::new(1, 100.0);
        let b = SimTime::new(1, 101.0);
        let c = SimTime::new(2, 0.0);
        assert!(a.absolute_seconds() < b.absolute_seconds());
        assert!(b.absolute_seconds() < c.absolute_seconds());
    }
}
