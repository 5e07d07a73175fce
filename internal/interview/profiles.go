package interview

// StandardProfiles returns four synthetic experiment interviews modelled
// on the workshop's findings: nearly identical processing workflows, data
// policies approved for CMS and LHCb but still under discussion for ALICE
// and ATLAS in 2014, and ALICE's shippable text-file constants versus the
// others' database access. They drive the Appendix A regeneration
// benchmark and the preservation-audit example.
func StandardProfiles() []*Interview {
	recoSW := func(condAccess string) []SoftwareDep {
		return []SoftwareDep{
			{Name: "experiment-reco", Version: "prod-2013", External: false},
			{Name: condAccess, External: true, Provides: "calibration and alignment constants"},
			{Name: "grid-middleware", External: true, Provides: "data placement and job brokering"},
		}
	}
	analysisSW := []SoftwareDep{
		{Name: "histlib", Version: "5.34", External: true, Provides: "histogramming and fitting"},
		{Name: "group-analysis-code", External: false},
	}
	stages := func(condAccess string, aodFiles int64) []LifecycleStage {
		return []LifecycleStage{
			{Name: "RAW collection", Files: 1000000, AvgFileSizeBytes: 2 << 30,
				Formats: []string{"raw-banks"}, Software: recoSW(condAccess)},
			{Name: "Reconstruction (RECO)", Files: 1000000, AvgFileSizeBytes: 1 << 30,
				Formats: []string{"edm-reco"}, Software: recoSW(condAccess)},
			{Name: "Analysis (AOD)", Files: aodFiles, AvgFileSizeBytes: 300 << 20,
				Formats: []string{"edm-aod"}, Software: analysisSW},
			{Name: "Group skims", Files: aodFiles / 5, AvgFileSizeBytes: 50 << 20,
				Formats: []string{"edm-derived"}, Software: analysisSW},
			{Name: "Publication", Files: 500, AvgFileSizeBytes: 1 << 20,
				Formats: []string{"tables", "hepdata-json"}},
		}
	}
	shareAll := []SharingRow{
		{Stage: "RAW", WithWhom: "Project collaborators", When: "always", Conditions: "collaboration membership"},
		{Stage: "AOD", WithWhom: "Others in the field", When: "after embargo", Conditions: "registration"},
		{Stage: "Publication", WithWhom: "Whole world", When: "always", Conditions: "attribution"},
	}
	shareClosed := []SharingRow{
		{Stage: "RAW", WithWhom: "Project collaborators", When: "always", Conditions: "collaboration membership"},
		{Stage: "Publication", WithWhom: "Whole world", When: "always", Conditions: "attribution"},
	}

	return []*Interview{
		{
			Name: "Alice", Dept: "Heavy-ion physics",
			DataDescription: "Pb-Pb and pp collision data; conditions shipped as text files with the data",
			Stages:          stages("text-constants-files", 400000),
			BackupCopies:    true, SecurityMeasures: true, DisasterRecoveryPlan: false, DMPRequired: true,
			StandardFormats: true, VersionedSoftware: true,
			MostImportantData: "reconstructed heavy-ion events and the calibration snapshots",
			Ratings: map[Area]Rating{
				AreaDataManagement:  3,
				AreaDataDescription: 3,
				AreaPreservation:    2, // policy under discussion (2014)
				AreaSharingAccess:   2,
			},
			SharingGrid: shareClosed,
		},
		{
			Name: "Atlas", Dept: "Energy frontier",
			DataDescription: "pp collision data, full EDM through xAOD",
			Stages:          stages("conditions-db", 800000),
			BackupCopies:    true, SecurityMeasures: true, DisasterRecoveryPlan: true, DMPRequired: true,
			StandardFormats: true, VersionedSoftware: true,
			MostImportantData: "xAOD and the per-analysis derivations",
			Ratings: map[Area]Rating{
				AreaDataManagement:  4,
				AreaDataDescription: 3,
				AreaPreservation:    3, // policy under discussion (2014)
				AreaSharingAccess:   3,
			},
			SharingGrid: shareClosed,
		},
		{
			Name: "CMS", Dept: "Energy frontier",
			DataDescription: "pp collision data; public release policy approved 2013",
			Stages:          stages("conditions-db", 900000),
			BackupCopies:    true, SecurityMeasures: true, DisasterRecoveryPlan: true, DMPRequired: true,
			StandardFormats: true, VersionedSoftware: true,
			MostImportantData: "AOD for public release plus the common group formats",
			Ratings: map[Area]Rating{
				AreaDataManagement:  4,
				AreaDataDescription: 4,
				AreaPreservation:    4, // approved public-release policy
				AreaSharingAccess:   4,
			},
			SharingGrid: shareAll,
		},
		{
			Name: "LHCb", Dept: "Flavour physics",
			DataDescription: "forward pp collision data; public release policy approved 2013",
			Stages:          stages("conditions-db", 300000),
			BackupCopies:    true, SecurityMeasures: true, DisasterRecoveryPlan: true, DMPRequired: true,
			StandardFormats: true, VersionedSoftware: true,
			MostImportantData: "stripped analysis streams and the trigger configuration",
			Ratings: map[Area]Rating{
				AreaDataManagement:  4,
				AreaDataDescription: 3,
				AreaPreservation:    4, // approved public-release policy
				AreaSharingAccess:   3,
			},
			SharingGrid: shareAll,
		},
	}
}
