// Package geo provides the geographic substrate for the paper's §9
// analysis: a world-city gazetteer with coordinates and population mass,
// great-circle distance, PoP (point-of-presence) deployments, and
// population-coverage integrals within radii of PoP sets.
//
// The gazetteer substitutes for the GPWv4 population-density raster the
// paper uses: population is concentrated at metro areas, so the percentage
// of population within 500/700/1000 km of a PoP set is well approximated by
// summing metro population mass over cities within the radius.
package geo

// Continent identifies one of the six populated continents, using the
// paper's Fig. 12 grouping.
type Continent uint8

const (
	Africa Continent = iota
	Asia
	Europe
	NorthAmerica
	Oceania
	SouthAmerica
	// NumContinents counts the continents: a Continent indexes an array
	// of this length.
	NumContinents
)

func (c Continent) String() string {
	switch c {
	case Africa:
		return "Africa"
	case Asia:
		return "Asia"
	case Europe:
		return "Europe"
	case NorthAmerica:
		return "North America"
	case Oceania:
		return "Oceania"
	case SouthAmerica:
		return "South America"
	}
	return "Unknown"
}

// Continents lists all continents in stable order.
func Continents() []Continent {
	return []Continent{Africa, Asia, Europe, NorthAmerica, Oceania, SouthAmerica}
}

// CityID indexes a city within the gazetteer.
type CityID int32

// City is one metro area: a population mass point with an IATA airport code
// used when synthesizing router hostnames (rdns package).
type City struct {
	Name      string
	Country   string
	Continent Continent
	Lat, Lon  float64
	// PopM is the metro population in millions.
	PopM float64
	// IATA is the metro's main airport code, lower-cased in hostnames.
	IATA string
}

// Cities returns the embedded gazetteer. The returned slice is shared and
// must not be modified.
func Cities() []City { return gazetteer }

// CityByIATA returns the gazetteer index of the city with the given airport
// code, or -1.
func CityByIATA(code string) CityID {
	for i, c := range gazetteer {
		if c.IATA == code {
			return CityID(i)
		}
	}
	return -1
}

// TotalPopulationM returns the summed metro population (millions) of the
// whole gazetteer, the denominator for world coverage percentages.
func TotalPopulationM() float64 {
	var s float64
	for _, c := range gazetteer {
		s += c.PopM
	}
	return s
}

// ContinentPopulationM returns the summed metro population (millions) per
// continent.
func ContinentPopulationM() map[Continent]float64 {
	out := make(map[Continent]float64, int(NumContinents))
	for _, c := range gazetteer {
		out[c.Continent] += c.PopM
	}
	return out
}

// gazetteer is a compact world-city dataset: major metros per continent with
// approximate coordinates and metro populations. It is reference data, not
// measurement output; the experiments only depend on its mass distribution.
var gazetteer = []City{
	// North America
	{"New York", "US", NorthAmerica, 40.71, -74.01, 19.8, "jfk"},
	{"Los Angeles", "US", NorthAmerica, 34.05, -118.24, 13.2, "lax"},
	{"Chicago", "US", NorthAmerica, 41.88, -87.63, 9.5, "ord"},
	{"Dallas", "US", NorthAmerica, 32.78, -96.80, 7.6, "dfw"},
	{"Houston", "US", NorthAmerica, 29.76, -95.37, 7.1, "iah"},
	{"Washington", "US", NorthAmerica, 38.91, -77.04, 6.3, "iad"},
	{"Miami", "US", NorthAmerica, 25.76, -80.19, 6.1, "mia"},
	{"Philadelphia", "US", NorthAmerica, 39.95, -75.17, 6.2, "phl"},
	{"Atlanta", "US", NorthAmerica, 33.75, -84.39, 6.0, "atl"},
	{"Boston", "US", NorthAmerica, 42.36, -71.06, 4.9, "bos"},
	{"Phoenix", "US", NorthAmerica, 33.45, -112.07, 4.9, "phx"},
	{"San Francisco", "US", NorthAmerica, 37.77, -122.42, 4.7, "sfo"},
	{"Seattle", "US", NorthAmerica, 47.61, -122.33, 4.0, "sea"},
	{"San Jose", "US", NorthAmerica, 37.34, -121.89, 2.0, "sjc"},
	{"Denver", "US", NorthAmerica, 39.74, -104.99, 3.0, "den"},
	{"Minneapolis", "US", NorthAmerica, 44.98, -93.27, 3.7, "msp"},
	{"Detroit", "US", NorthAmerica, 42.33, -83.05, 4.3, "dtw"},
	{"Toronto", "CA", NorthAmerica, 43.65, -79.38, 6.3, "yyz"},
	{"Montreal", "CA", NorthAmerica, 45.50, -73.57, 4.3, "yul"},
	{"Vancouver", "CA", NorthAmerica, 49.28, -123.12, 2.6, "yvr"},
	{"Mexico City", "MX", NorthAmerica, 19.43, -99.13, 21.8, "mex"},
	{"Guadalajara", "MX", NorthAmerica, 20.66, -103.35, 5.3, "gdl"},
	{"Monterrey", "MX", NorthAmerica, 25.69, -100.32, 5.3, "mty"},
	{"Guatemala City", "GT", NorthAmerica, 14.63, -90.51, 3.0, "gua"},
	{"Panama City", "PA", NorthAmerica, 8.98, -79.52, 1.9, "pty"},
	{"Havana", "CU", NorthAmerica, 23.11, -82.37, 2.1, "hav"},
	{"Santo Domingo", "DO", NorthAmerica, 18.49, -69.93, 3.3, "sdq"},
	{"San Juan", "PR", NorthAmerica, 18.47, -66.11, 2.4, "sju"},
	// South America
	{"Sao Paulo", "BR", SouthAmerica, -23.55, -46.63, 22.0, "gru"},
	{"Rio de Janeiro", "BR", SouthAmerica, -22.91, -43.17, 13.5, "gig"},
	{"Brasilia", "BR", SouthAmerica, -15.79, -47.88, 4.7, "bsb"},
	{"Fortaleza", "BR", SouthAmerica, -3.72, -38.54, 4.1, "for"},
	{"Porto Alegre", "BR", SouthAmerica, -30.03, -51.22, 4.3, "poa"},
	{"Buenos Aires", "AR", SouthAmerica, -34.60, -58.38, 15.4, "eze"},
	{"Cordoba", "AR", SouthAmerica, -31.42, -64.18, 1.6, "cor"},
	{"Santiago", "CL", SouthAmerica, -33.45, -70.67, 6.9, "scl"},
	{"Lima", "PE", SouthAmerica, -12.05, -77.04, 11.0, "lim"},
	{"Bogota", "CO", SouthAmerica, 4.71, -74.07, 11.0, "bog"},
	{"Medellin", "CO", SouthAmerica, 6.25, -75.56, 4.0, "mde"},
	{"Caracas", "VE", SouthAmerica, 10.48, -66.90, 2.9, "ccs"},
	{"Quito", "EC", SouthAmerica, -0.18, -78.47, 2.0, "uio"},
	{"Montevideo", "UY", SouthAmerica, -34.90, -56.16, 1.8, "mvd"},
	{"La Paz", "BO", SouthAmerica, -16.50, -68.15, 1.9, "lpb"},
	{"Asuncion", "PY", SouthAmerica, -25.26, -57.58, 2.3, "asu"},
	// Europe
	{"London", "GB", Europe, 51.51, -0.13, 14.3, "lhr"},
	{"Paris", "FR", Europe, 48.86, 2.35, 12.3, "cdg"},
	{"Madrid", "ES", Europe, 40.42, -3.70, 6.7, "mad"},
	{"Barcelona", "ES", Europe, 41.39, 2.17, 5.6, "bcn"},
	{"Berlin", "DE", Europe, 52.52, 13.40, 4.5, "ber"},
	{"Frankfurt", "DE", Europe, 50.11, 8.68, 2.7, "fra"},
	{"Munich", "DE", Europe, 48.14, 11.58, 2.9, "muc"},
	{"Hamburg", "DE", Europe, 53.55, 9.99, 2.5, "ham"},
	{"Dusseldorf", "DE", Europe, 51.23, 6.78, 1.6, "dus"},
	{"Rome", "IT", Europe, 41.90, 12.50, 4.3, "fco"},
	{"Milan", "IT", Europe, 45.46, 9.19, 4.3, "mxp"},
	{"Amsterdam", "NL", Europe, 52.37, 4.90, 2.8, "ams"},
	{"Brussels", "BE", Europe, 50.85, 4.35, 2.1, "bru"},
	{"Vienna", "AT", Europe, 48.21, 16.37, 2.9, "vie"},
	{"Zurich", "CH", Europe, 47.37, 8.54, 1.4, "zrh"},
	{"Geneva", "CH", Europe, 46.20, 6.14, 0.6, "gva"},
	{"Stockholm", "SE", Europe, 59.33, 18.07, 2.4, "arn"},
	{"Copenhagen", "DK", Europe, 55.68, 12.57, 2.1, "cph"},
	{"Oslo", "NO", Europe, 59.91, 10.75, 1.6, "osl"},
	{"Helsinki", "FI", Europe, 60.17, 24.94, 1.5, "hel"},
	{"Dublin", "IE", Europe, 53.35, -6.26, 2.0, "dub"},
	{"Manchester", "GB", Europe, 53.48, -2.24, 2.9, "man"},
	{"Lisbon", "PT", Europe, 38.72, -9.14, 2.9, "lis"},
	{"Warsaw", "PL", Europe, 52.23, 21.01, 3.1, "waw"},
	{"Prague", "CZ", Europe, 50.08, 14.44, 2.7, "prg"},
	{"Budapest", "HU", Europe, 47.50, 19.04, 3.0, "bud"},
	{"Bucharest", "RO", Europe, 44.43, 26.10, 2.3, "otp"},
	{"Sofia", "BG", Europe, 42.70, 23.32, 1.7, "sof"},
	{"Athens", "GR", Europe, 37.98, 23.73, 3.6, "ath"},
	{"Istanbul", "TR", Europe, 41.01, 28.98, 15.8, "ist"},
	{"Kyiv", "UA", Europe, 50.45, 30.52, 3.0, "kbp"},
	{"Moscow", "RU", Europe, 55.76, 37.62, 12.6, "svo"},
	{"St Petersburg", "RU", Europe, 59.93, 30.34, 5.4, "led"},
	{"Belgrade", "RS", Europe, 44.79, 20.45, 1.7, "beg"},
	{"Zagreb", "HR", Europe, 45.82, 15.98, 1.1, "zag"},
	{"Marseille", "FR", Europe, 43.30, 5.37, 1.9, "mrs"},
	// Asia
	{"Tokyo", "JP", Asia, 35.68, 139.69, 37.3, "nrt"},
	{"Osaka", "JP", Asia, 34.69, 135.50, 19.1, "kix"},
	{"Nagoya", "JP", Asia, 35.18, 136.91, 9.5, "ngo"},
	{"Seoul", "KR", Asia, 37.57, 126.98, 25.5, "icn"},
	{"Busan", "KR", Asia, 35.18, 129.08, 3.4, "pus"},
	{"Beijing", "CN", Asia, 39.90, 116.41, 20.9, "pek"},
	{"Shanghai", "CN", Asia, 31.23, 121.47, 27.8, "pvg"},
	{"Guangzhou", "CN", Asia, 23.13, 113.26, 13.9, "can"},
	{"Shenzhen", "CN", Asia, 22.54, 114.06, 12.6, "szx"},
	{"Chengdu", "CN", Asia, 30.57, 104.07, 9.3, "ctu"},
	{"Wuhan", "CN", Asia, 30.59, 114.31, 8.4, "wuh"},
	{"Hong Kong", "HK", Asia, 22.32, 114.17, 7.5, "hkg"},
	{"Taipei", "TW", Asia, 25.03, 121.57, 7.0, "tpe"},
	{"Singapore", "SG", Asia, 1.35, 103.82, 5.9, "sin"},
	{"Kuala Lumpur", "MY", Asia, 3.14, 101.69, 8.0, "kul"},
	{"Bangkok", "TH", Asia, 13.76, 100.50, 10.7, "bkk"},
	{"Jakarta", "ID", Asia, -6.21, 106.85, 10.6, "cgk"},
	{"Surabaya", "ID", Asia, -7.26, 112.75, 3.0, "sub"},
	{"Manila", "PH", Asia, 14.60, 120.98, 13.9, "mnl"},
	{"Ho Chi Minh City", "VN", Asia, 10.82, 106.63, 9.0, "sgn"},
	{"Hanoi", "VN", Asia, 21.03, 105.85, 8.1, "han"},
	{"Mumbai", "IN", Asia, 19.08, 72.88, 20.7, "bom"},
	{"Delhi", "IN", Asia, 28.70, 77.10, 31.2, "del"},
	{"Bangalore", "IN", Asia, 12.97, 77.59, 12.8, "blr"},
	{"Chennai", "IN", Asia, 13.08, 80.27, 11.2, "maa"},
	{"Hyderabad", "IN", Asia, 17.39, 78.49, 10.3, "hyd"},
	{"Kolkata", "IN", Asia, 22.57, 88.36, 14.9, "ccu"},
	{"Karachi", "PK", Asia, 24.86, 67.01, 16.5, "khi"},
	{"Lahore", "PK", Asia, 31.55, 74.34, 13.1, "lhe"},
	{"Dhaka", "BD", Asia, 23.81, 90.41, 21.7, "dac"},
	{"Colombo", "LK", Asia, 6.93, 79.85, 2.3, "cmb"},
	{"Dubai", "AE", Asia, 25.20, 55.27, 3.5, "dxb"},
	{"Riyadh", "SA", Asia, 24.71, 46.68, 7.5, "ruh"},
	{"Jeddah", "SA", Asia, 21.49, 39.19, 4.7, "jed"},
	{"Tel Aviv", "IL", Asia, 32.09, 34.78, 4.2, "tlv"},
	{"Tehran", "IR", Asia, 35.69, 51.39, 9.5, "ika"},
	{"Baghdad", "IQ", Asia, 33.31, 44.36, 7.5, "bgw"},
	{"Almaty", "KZ", Asia, 43.22, 76.85, 2.0, "ala"},
	{"Tashkent", "UZ", Asia, 41.30, 69.24, 2.6, "tas"},
	{"Doha", "QA", Asia, 25.29, 51.53, 2.4, "doh"},
	{"Kuwait City", "KW", Asia, 29.38, 47.99, 3.1, "kwi"},
	{"Amman", "JO", Asia, 31.96, 35.95, 2.2, "amm"},
	// Africa
	{"Cairo", "EG", Africa, 30.04, 31.24, 21.3, "cai"},
	{"Alexandria", "EG", Africa, 31.20, 29.92, 5.4, "hbe"},
	{"Lagos", "NG", Africa, 6.52, 3.38, 14.9, "los"},
	{"Abuja", "NG", Africa, 9.07, 7.40, 3.6, "abv"},
	{"Kinshasa", "CD", Africa, -4.44, 15.27, 14.9, "fih"},
	{"Johannesburg", "ZA", Africa, -26.20, 28.05, 10.0, "jnb"},
	{"Cape Town", "ZA", Africa, -33.92, 18.42, 4.7, "cpt"},
	{"Durban", "ZA", Africa, -29.86, 31.03, 3.2, "dur"},
	{"Nairobi", "KE", Africa, -1.29, 36.82, 5.1, "nbo"},
	{"Addis Ababa", "ET", Africa, 9.03, 38.74, 5.0, "add"},
	{"Dar es Salaam", "TZ", Africa, -6.79, 39.21, 7.0, "dar"},
	{"Accra", "GH", Africa, 5.60, -0.19, 2.6, "acc"},
	{"Abidjan", "CI", Africa, 5.36, -4.01, 5.3, "abj"},
	{"Dakar", "SN", Africa, 14.72, -17.47, 3.3, "dss"},
	{"Casablanca", "MA", Africa, 33.57, -7.59, 3.8, "cmn"},
	{"Algiers", "DZ", Africa, 36.74, 3.09, 2.8, "alg"},
	{"Tunis", "TN", Africa, 36.81, 10.18, 2.4, "tun"},
	{"Kampala", "UG", Africa, 0.35, 32.58, 3.7, "ebb"},
	{"Luanda", "AO", Africa, -8.84, 13.29, 8.6, "lad"},
	{"Khartoum", "SD", Africa, 15.50, 32.56, 6.0, "krt"},
	{"Maputo", "MZ", Africa, -25.97, 32.57, 1.8, "mpm"},
	// Oceania
	{"Sydney", "AU", Oceania, -33.87, 151.21, 5.4, "syd"},
	{"Melbourne", "AU", Oceania, -37.81, 144.96, 5.2, "mel"},
	{"Brisbane", "AU", Oceania, -27.47, 153.03, 2.6, "bne"},
	{"Perth", "AU", Oceania, -31.95, 115.86, 2.1, "per"},
	{"Adelaide", "AU", Oceania, -34.93, 138.60, 1.4, "adl"},
	{"Auckland", "NZ", Oceania, -36.85, 174.76, 1.7, "akl"},
	{"Wellington", "NZ", Oceania, -41.29, 174.78, 0.4, "wlg"},
	{"Port Moresby", "PG", Oceania, -9.44, 147.18, 0.4, "pom"},
	{"Suva", "FJ", Oceania, -18.14, 178.44, 0.2, "suv"},
	{"Honolulu", "US", Oceania, 21.31, -157.86, 1.0, "hnl"},
}
